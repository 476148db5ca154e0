module Model = Smem_core.Model
module H = Smem_core.History

type relation = Equal | Stronger | Weaker | Incomparable

type matrix = {
  models : Model.t list;
  total : int;
  allowed_counts : int array;
  only_in : int array array;
  witness : H.t option array array;
}

(* Verdicts on each canonical class, shared by the parts of one
   [classify] call: the raw MD5 of the class's canonical encoding
   maps to a bitmask of the memoized models that allow it.  Parts run
   on several domains, so the table is locked; two parts racing on a
   new class both run the same pure checks and store the same mask. *)
type memo = { table : (string, int) Hashtbl.t; lock : Mutex.t }

let classes = Smem_obs.Metrics.counter "lattice.classes"

let memo_find memo key =
  Mutex.protect memo.lock (fun () -> Hashtbl.find_opt memo.table key)

let memo_add memo key mask =
  Mutex.protect memo.lock (fun () ->
      if not (Hashtbl.mem memo.table key) then begin
        Hashtbl.add memo.table key mask;
        Smem_obs.Metrics.incr classes
      end)

let classify_part ~memo ~models config ~parts ~part =
  let models_arr = Array.of_list models in
  let n = Array.length models_arr in
  (* Only models whose verdict survives Canon's renaming share a
     class's verdict, and only as many as an int mask holds; the rest
     are checked on every history. *)
  let memoized =
    Array.mapi
      (fun i (m : Model.t) -> m.Model.renaming_invariant && i < Sys.int_size)
      models_arr
  in
  let any_memoized = Array.exists Fun.id memoized in
  let total = ref 0 in
  let allowed_counts = Array.make n 0 in
  let only_in = Array.make_matrix n n 0 in
  let witness = Array.init n (fun _ -> Array.make n None) in
  let allowed = Array.make n false in
  Enumerate.iter ~parts ~part config ~f:(fun h ->
      incr total;
      let mask =
        if not any_memoized then 0
        else
          let key = Digest.string (Smem_core.Canon.encode h) in
          match memo_find memo key with
          | Some mask -> mask
          | None ->
              let mask = ref 0 in
              Array.iteri
                (fun i m ->
                  if memoized.(i) && Model.check m h then
                    mask := !mask lor (1 lsl i))
                models_arr;
              memo_add memo key !mask;
              !mask
      in
      Array.iteri
        (fun i m ->
          allowed.(i) <-
            (if memoized.(i) then mask land (1 lsl i) <> 0
             else Model.check m h))
        models_arr;
      for i = 0 to n - 1 do
        if allowed.(i) then begin
          allowed_counts.(i) <- allowed_counts.(i) + 1;
          for j = 0 to n - 1 do
            if not allowed.(j) then begin
              only_in.(i).(j) <- only_in.(i).(j) + 1;
              if witness.(i).(j) = None then witness.(i).(j) <- Some h
            end
          done
        end
      done);
  { models; total = !total; allowed_counts; only_in; witness }

let merge a b =
  if List.map (fun (m : Model.t) -> m.Model.key) a.models
     <> List.map (fun (m : Model.t) -> m.Model.key) b.models
  then invalid_arg "Classify.merge: model lists differ";
  let n = List.length a.models in
  {
    models = a.models;
    total = a.total + b.total;
    allowed_counts = Array.map2 ( + ) a.allowed_counts b.allowed_counts;
    only_in =
      Array.init n (fun i -> Array.map2 ( + ) a.only_in.(i) b.only_in.(i));
    witness =
      Array.init n (fun i ->
          Array.init n (fun j ->
              match a.witness.(i).(j) with
              | Some _ as w -> w
              | None -> b.witness.(i).(j)));
  }

let classify ?(jobs = 1) ~models config =
  (* Partition the enumeration by first-slot choice — one part per
     choice, independent of [jobs] — and merge in part order.  The
     partition is fixed so the result (counts {e and} example
     witnesses) is identical for every [jobs], including the serial
     run.  The memo only saves checks: whichever part first meets a
     class, every history still counts on its own. *)
  let parts = max 1 (Enumerate.nchoices config) in
  let memo = { table = Hashtbl.create 1024; lock = Mutex.create () } in
  Smem_parallel.Pool.map ~jobs
    (fun part -> classify_part ~memo ~models config ~parts ~part)
    (List.init parts Fun.id)
  |> function
  | [] -> assert false
  | m :: rest -> List.fold_left merge m rest

let standard_scopes =
  [
    (* Figure 1 scope: 2x2 ops, two locations, one written value. *)
    { Enumerate.procs = [ 2; 2 ]; nlocs = 2; max_value = 1; labeled = false };
    (* Figure 2 scope: a writer, a forwarder, an observer. *)
    { Enumerate.procs = [ 1; 2; 2 ]; nlocs = 2; max_value = 1; labeled = false };
    (* Figure 3 scope: one location, two values, three ops each. *)
    { Enumerate.procs = [ 3; 3 ]; nlocs = 1; max_value = 2; labeled = false };
  ]

let classify_scopes ?jobs ~models scopes =
  match List.map (classify ?jobs ~models) scopes with
  | [] -> invalid_arg "Classify.classify_scopes: no scopes"
  | m :: rest -> List.fold_left merge m rest

let relation m i j =
  match (m.only_in.(i).(j), m.only_in.(j).(i)) with
  | 0, 0 -> Equal
  | 0, _ -> Stronger
  | _, 0 -> Weaker
  | _, _ -> Incomparable

let hasse_edges m =
  let n = List.length m.models in
  let stronger i j = i <> j && relation m i j = Stronger in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if stronger i j then begin
        let between = ref false in
        for k = 0 to n - 1 do
          if k <> i && k <> j && stronger i k && stronger k j then between := true
        done;
        if not !between then edges := (i, j) :: !edges
      end
    done
  done;
  List.rev !edges

let model_key m i = (List.nth m.models i).Model.key

let pp_summary ppf m =
  let n = List.length m.models in
  Format.fprintf ppf "@[<v>histories enumerated: %d@," m.total;
  List.iteri
    (fun i (model : Model.t) ->
      Format.fprintf ppf "%-28s allows %d@," model.Model.name m.allowed_counts.(i))
    m.models;
  Format.fprintf ppf "@,pairwise relations:@,";
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let describe = function
        | Equal -> "equivalent to"
        | Stronger -> "strictly stronger than"
        | Weaker -> "strictly weaker than"
        | Incomparable -> "incomparable with"
      in
      Format.fprintf ppf "%-12s %s %-12s" (model_key m i)
        (describe (relation m i j))
        (model_key m j);
      (match relation m i j with
      | Incomparable | Weaker -> (
          match m.witness.(i).(j) with
          | Some h ->
              Format.fprintf ppf "  (e.g. %s-only: %s)" (model_key m i)
                (String.concat " | "
                   (List.init (H.nprocs h) (fun p ->
                        Format.asprintf "%a" (H.pp_ops h)
                          (Array.to_list (H.proc_ops h p)))))
          | None -> ())
      | Equal | Stronger -> ());
      Format.fprintf ppf "@,"
    done
  done;
  Format.fprintf ppf "@,Hasse diagram (stronger -> weaker):@,";
  List.iter
    (fun (i, j) ->
      Format.fprintf ppf "  %s -> %s@," (model_key m i) (model_key m j))
    (hasse_edges m);
  Format.fprintf ppf "@]"

let to_dot m =
  let nodes =
    List.mapi
      (fun i (model : Model.t) ->
        (Printf.sprintf "m%d" i, Printf.sprintf "%s" model.Model.name))
      m.models
  in
  let edges =
    List.map
      (fun (i, j) -> (Printf.sprintf "m%d" i, Printf.sprintf "m%d" j))
      (hasse_edges m)
  in
  Smem_relation.Dot.of_edges ~name:"lattice" ~nodes ~edges ()
