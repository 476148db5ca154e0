type access = {
  thread : int;
  kind : [ `Read | `Write | `Rmw ];
  loc : int;
  labeled : bool;
}

type verdict = Race_free of int | Race of access * access | State_limit

let pp_access ppf a =
  Format.fprintf ppf "t%d %s loc%d%s" a.thread
    (match a.kind with `Read -> "read" | `Write -> "write" | `Rmw -> "rmw")
    a.loc
    (if a.labeled then " (labeled)" else "")

let access_of_action thread = function
  | Exec.A_load { loc; labeled; _ } -> Some { thread; kind = `Read; loc; labeled }
  | Exec.A_store { loc; labeled; _ } -> Some { thread; kind = `Write; loc; labeled }
  | Exec.A_tas { loc; _ } -> Some { thread; kind = `Rmw; loc; labeled = true }
  | Exec.A_enter | Exec.A_exit -> None

let conflicting a b =
  a.loc = b.loc
  && (a.kind <> `Read || b.kind <> `Read)
  && ((not a.labeled) || not b.labeled)

exception Found of access * access

(* Exploration over the SC machine: SC state is just the shared memory,
   and reads are deterministic, so the product automaton is small.  A
   state is keyed by the machine and each thread's registers and
   continuation. *)
module M = Smem_machine.Sc_machine

let find_race ?(max_states = 2_000_000) ?(fuel = 10_000) program =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  let visited = Hashtbl.create 65_537 in
  let states = ref 0 in
  let limit_hit = ref false in
  (* A race is a pair of pending accesses (each thread's next visible
     action is deterministic) that conflict. *)
  let check_for_race nexts =
    let accesses =
      List.filter_map Fun.id
        (List.mapi
           (fun i -> function
             | Some (Step.Act (action, _, _)) -> access_of_action i action
             | Some (Step.Finish _) | None -> None)
           (Array.to_list nexts))
    in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b -> if j > i && conflicting a b then raise (Found (a, b)))
          accesses)
      accesses
  in
  let rec explore machine threads =
    let key = Step.digest machine threads (fun (t : Step.thread) -> (t.env, t.cont)) in
    if Hashtbl.mem visited key || !limit_hit then ()
    else begin
      incr states;
      if !states > max_states then limit_hit := true
      else begin
        Hashtbl.add visited key ();
        match Step.nexts layout ~fuel threads with
        | None ->
            (* a thread exhausted its local fuel: the search is bounded *)
            limit_hit := true
        | Some nexts ->
            check_for_race nexts;
            Array.iteri
              (fun i ->
                Option.iter (fun tr ->
                    let machine', threads', _ =
                      Step.apply (module M) machine threads i tr
                    in
                    explore machine' threads'))
              nexts
      end
    end
  in
  try
    explore
      (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout))
      (Step.initial program);
    if !limit_hit then State_limit else Race_free !states
  with Found (a, b) -> Race (a, b)

let properly_labeled ?max_states program =
  match find_race ?max_states program with
  | Race_free _ -> true
  | Race _ | State_limit -> false
