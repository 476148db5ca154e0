(* The catalogue.  Every parameterized model is a registry row: its key,
   name, description and parameter triple — its witness search is the
   one {!Spec} compiles from the triple. *)

open Model

let row ~key ~name ~description population ordering mutual legality =
  make ~key ~name ~description
    (Derived { population; ordering; mutual; legality })

let sc =
  row ~key:"sc" ~name:"Sequential Consistency"
    ~description:
      "One legal interleaving of all operations, respecting program order, \
       shared by all processors (Lamport 1979)."
    Shared_all Program_order No_mutual Writer_legal

let atomic =
  row ~key:"atomic" ~name:"Atomic Memory"
    ~description:
      "Sequential consistency plus real-time precedence: the shared view \
       orders an operation before any operation invoked after its response \
       (Misra 1986; linearizability).  Coincides with SC on histories \
       without timing information."
    Shared_all Po_plus_real_time No_mutual Writer_legal

let tso =
  row ~key:"tso" ~name:"Total Store Ordering"
    ~description:
      "Per-processor views of own operations plus all writes; a single \
       global write order shared by all views; partial program order \
       (reads may bypass earlier writes to other locations)."
    Own_plus_writes Partial_program_order Global_write_order Writer_legal

let pc =
  row ~key:"pc" ~name:"Processor Consistency (DASH)"
    ~description:
      "Per-processor views of own operations plus all writes; coherence as \
       mutual consistency; semi-causality (ppo + remote writes-before + \
       remote reads-before) as the ordering requirement."
    Own_plus_writes Semi_causal Coherence_agreement Writer_legal

let rc_sc =
  row ~key:"rc-sc" ~name:"Release Consistency (RC_sc)"
    ~description:
      "Release consistency with sequentially consistent labeled \
       (synchronization) operations, as in the DASH architecture."
    Own_plus_writes Own_ppo_bracketed Labeled_sc Writer_legal

let rc_pc =
  row ~key:"rc-pc" ~name:"Release Consistency (RC_pc)"
    ~description:
      "Release consistency with processor consistent labeled \
       (synchronization) operations, as in the DASH architecture."
    Own_plus_writes Own_ppo_bracketed Labeled_pc Writer_legal

let wo =
  row ~key:"wo" ~name:"Weak Ordering"
    ~description:
      "Selective synchronization with two-way fences: one global legal \
       order on labeled (synchronizing) accesses, every operation ordered \
       across each of its processor's synchronization points (Dubois, \
       Scheurich, Briggs 1988)."
    Own_plus_writes Sync_fences Labeled_total Value_legal

let pc_g =
  row ~key:"pc-g" ~name:"Processor Consistency (Goodman)"
    ~description:
      "PRAM plus coherence: per-processor views respecting program order \
       that agree on a per-location write serialization (Goodman 1989, as \
       formalized by Ahamad et al. 1992)."
    Own_plus_writes Program_order Coherence_agreement Value_legal

let causal_coh =
  row ~key:"causal-coh" ~name:"Coherent Causal Memory"
    ~description:
      "Causal memory plus coherence (the new memory suggested in the \
       paper's concluding remarks): views respect causal order and agree \
       on a per-location write serialization."
    Own_plus_writes Causal_plus_coherence Coherence_agreement Value_legal

let causal =
  row ~key:"causal" ~name:"Causal Memory"
    ~description:
      "Independent per-processor views of own operations plus all writes, \
       respecting the causal order (program order + writes-before, \
       transitively); no mutual consistency."
    Own_plus_writes Causal_order No_mutual Value_legal

let causal_obj =
  row ~key:"causal-obj" ~name:"Object Causal Memory"
    ~description:
      "Causal consistency over sequential-spec objects \
       (Mostefaoui-Perrin-Raynal): queues (q:*) and counters (c:*) as \
       well as registers.  Per-processor views of own operations plus \
       all updates respect the causal order and replay as legal \
       sequential object histories; coincides with causal memory on \
       register-only histories."
    Own_plus_updates Causal_order No_mutual Object_legal

let coh =
  row ~key:"coh" ~name:"Coherence"
    ~description:
      "Each location is sequentially consistent in isolation: a single \
       serialization of all accesses per location, respecting per-location \
       program order."
    Per_location Program_order No_mutual Writer_legal

let pram =
  row ~key:"pram" ~name:"Pipelined RAM"
    ~description:
      "Independent per-processor views of own operations plus all writes, \
       respecting program order only; no mutual consistency."
    Own_plus_writes Program_order No_mutual Value_legal

let slow =
  row ~key:"slow" ~name:"Slow Memory"
    ~description:
      "Independent views respecting the owner's program order and each \
       processor's per-location write order only (Hutto and Ahamad)."
    Own_plus_writes Own_po_plus_po_loc No_mutual Value_legal

let local =
  row ~key:"local" ~name:"Local Consistency"
    ~description:
      "Independent views respecting only the owner's program order; other \
       processors' writes may be observed in any order."
    Own_plus_writes Own_program_order No_mutual Value_legal

(* ---- family instances --------------------------------------------- *)

(* Partition consistency (Cheng-Higham-Kawash): one view per processor
   per location-partition block, all views agreeing on a per-location
   write serialization.  With every location in one block the family is
   extensionally PC-G; with singleton blocks, coherence. *)
let pc_part_params blocks =
  {
    population = Per_proc_block { blocks };
    ordering = Program_order;
    mutual = Coherence_agreement;
    legality = Value_legal;
  }

let pc_part ~blocks =
  make
    ~key:(Printf.sprintf "pc-part(blocks=%d)" blocks)
    ~name:(Printf.sprintf "Partition Consistency (%d blocks)" blocks)
    ~description:
      (Printf.sprintf
         "Partition consistency over the mod-%d location partition: one \
          view per processor per block (own operations on the block plus \
          all writes to it) respecting program order, all views agreeing \
          on a per-location write serialization (Cheng-Higham-Kawash). \
          One block is PC-G; singleton blocks are coherence."
         blocks)
    (Derived (pc_part_params blocks))

(* The explicit partition by location name is not expressible as a
   triple (its block function reads location names), so it is a custom
   model: the same per-processor-block search with its own blocks.
   Unlisted locations get singleton blocks of their own.  Reading names
   makes the verdict depend on them: renaming the locations of a test
   can change it. *)
let pc_part_named partition =
  let spelled = String.concat "|" (List.map (String.concat ".") partition) in
  let named = List.length partition in
  let blocks h =
    let extra = ref 0 in
    Array.init (History.nlocs h) (fun l ->
        match List.find_index (List.mem (History.loc_name h l)) partition with
        | Some b -> b
        | None ->
            incr extra;
            named + !extra - 1)
  in
  make
    ~key:(Printf.sprintf "pc-part(partition=%s)" spelled)
    ~name:"Partition Consistency (named partition)"
    ~description:
      (Printf.sprintf
         "Partition consistency over the explicit location partition %s \
          (unlisted locations get singleton blocks).  Not expressible in \
          the pure parameter triple, so these instances cannot emit \
          certificates."
         spelled)
    (Custom
       {
         witness = Spec.witness ~partition:blocks (pc_part_params named);
         renaming_invariant = false;
       })

(* Session guarantees (Terry et al.): per-processor views ordered only
   by the enabled guarantees.  Writes-follow-reads quantifies over a
   reads-from map, so it switches the family to writer legality. *)
let session ~ryw ~mr ~mw ~wfr =
  let ordering = Session { ryw; mr; mw; wfr } in
  let key = ordering_to_string ordering in
  let on b = if b then "on" else "off" in
  row ~key ~name:("Session Guarantees " ^ key)
    ~description:
      (Printf.sprintf
         "Session guarantees (Terry et al.): read-your-writes %s, monotonic \
          reads %s, monotonic writes %s, writes-follow-reads %s.  \
          Per-processor views of own operations plus all writes, ordered \
          only by the enabled guarantees."
         (on ryw) (on mr) (on mw) (on wfr))
    Own_plus_writes ordering No_mutual
    (if wfr then Writer_legal else Value_legal)

let all =
  [
    atomic;
    sc;
    tso;
    Tso_operational.model;
    pc;
    rc_sc;
    rc_pc;
    wo;
    pc_g;
    pc_part ~blocks:2;
    pc_part ~blocks:4;
    causal_coh;
    causal;
    causal_obj;
    coh;
    pram;
    session ~ryw:true ~mr:true ~mw:true ~wfr:true;
    session ~ryw:true ~mr:true ~mw:false ~wfr:false;
    slow;
    local;
  ]

let comparable = [ sc; tso; pc; causal; pram ]

let certifiable =
  List.filter (fun (m : Model.t) -> Option.is_some m.Model.params) all

let keys () = List.map (fun (m : Model.t) -> m.Model.key) all

(* ---- did-you-mean ------------------------------------------------- *)

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

(* ---- families ----------------------------------------------------- *)

type family_info = {
  family : string;
  doc : string;
  params : (string * string) list;
  instantiate : Model_ref.t -> (Model.t, string) result;
}

let check_args (r : Model_ref.t) ~known =
  match Model_ref.unknown_args r ~known with
  | [] -> Ok ()
  | bad :: _ ->
      let suggestion =
        List.fold_left
          (fun best k ->
            let d = levenshtein bad k in
            match best with
            | Some (_, d') when d' <= d -> best
            | _ when d <= 3 -> Some (k, d)
            | _ -> best)
          None known
      in
      Error
        (Printf.sprintf "unknown argument %S of %s%s" bad r.Model_ref.family
           (match suggestion with
           | Some (k, _) -> Printf.sprintf " (did you mean %S?)" k
           | None ->
               if known = [] then ""
               else
                 Printf.sprintf " (known: %s)" (String.concat ", " known)))

let ( let* ) = Result.bind

let inst_pc_part (r : Model_ref.t) =
  let* () = check_args r ~known:[ "blocks"; "partition" ] in
  let* blocks = Model_ref.int_arg r "blocks" in
  let partition = List.assoc_opt "partition" r.Model_ref.args in
  match (blocks, partition) with
  | Some _, Some _ -> Error "pc-part takes blocks= or partition=, not both"
  | None, None -> Error "pc-part requires blocks=<k> or partition=<a.b|c>"
  | Some k, None ->
      if k < 1 || k > 64 then
        Error (Printf.sprintf "pc-part blocks must be in 1..64, got %d" k)
      else Ok (pc_part ~blocks:k)
  | None, Some spec ->
      let blocks =
        List.map (String.split_on_char '.') (String.split_on_char '|' spec)
      in
      if spec = "" || List.exists (List.exists (fun l -> l = "")) blocks then
        Error (Printf.sprintf "bad pc-part partition %S (want a.b|c)" spec)
      else
        let locs = List.concat blocks in
        let dup =
          List.exists
            (fun l -> List.length (List.filter (String.equal l) locs) > 1)
            locs
        in
        if dup then
          Error (Printf.sprintf "pc-part partition %S lists a location twice" spec)
        else Ok (pc_part_named blocks)

let inst_session (r : Model_ref.t) =
  let* () = check_args r ~known:[ "ryw"; "mr"; "mw"; "wfr" ] in
  let* ryw = Model_ref.flag r "ryw" in
  let* mr = Model_ref.flag r "mr" in
  let* mw = Model_ref.flag r "mw" in
  let* wfr = Model_ref.flag r "wfr" in
  Ok (session ~ryw ~mr ~mw ~wfr)

let inst_causal_obj (r : Model_ref.t) =
  let* () = check_args r ~known:[] in
  Ok causal_obj

let families =
  [
    {
      family = "pc-part";
      doc =
        "Partition consistency (Cheng-Higham-Kawash): per-processor views \
         per location-partition block, with a shared per-location write \
         serialization.  One block ~ PC-G, singleton blocks ~ coherence.";
      params =
        [
          ("blocks", "positive integer <= 64: location id modulo k partition");
          ( "partition",
            "explicit blocks by location name, '.'-separated within a block, \
             '|' between blocks (witness-only: no certificates)" );
        ];
      instantiate = inst_pc_part;
    };
    {
      family = "session";
      doc =
        "Session guarantees (Terry et al.): per-processor views ordered \
         only by the enabled guarantees.";
      params =
        [
          ("ryw", "flag: read-your-writes (own write->read program order)");
          ("mr", "flag: monotonic reads (own read->read program order)");
          ("mw", "flag: monotonic writes (every write->write program order)");
          ( "wfr",
            "flag: writes-follow-reads (read's writer before subsequent own \
             writes; commits to a reads-from map)" );
        ];
      instantiate = inst_session;
    };
    {
      family = "causal-obj";
      doc =
        "Causal consistency over sequential-spec objects \
         (Mostefaoui-Perrin-Raynal): queues (q:*), counters (c:*), \
         registers.";
      params = [];
      instantiate = inst_causal_obj;
    };
  ]

(* ---- resolution --------------------------------------------------- *)

(* Instances are memoized so repeated references share one [Model.t]
   (hence one verdict-cache key).  The daemon resolves references from
   several worker domains, so the table is guarded. *)
let memo : (string, Model.t) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()

let memo_find key =
  Mutex.lock memo_lock;
  let r = Hashtbl.find_opt memo key in
  Mutex.unlock memo_lock;
  r

let memo_add key m =
  Mutex.lock memo_lock;
  (* Another domain may have instantiated the same reference
     concurrently; keep the first instance so callers share it. *)
  let m =
    match Hashtbl.find_opt memo key with
    | Some existing -> existing
    | None ->
        Hashtbl.replace memo key m;
        m
  in
  Mutex.unlock memo_lock;
  m

let suggest s =
  let candidates =
    keys () @ List.map (fun f -> f.family) families
  in
  List.fold_left
    (fun best k ->
      let d = levenshtein s k in
      match best with
      | Some (_, d') when d' <= d -> best
      | _ when d <= 3 -> Some (k, d)
      | _ -> best)
    None candidates
  |> Option.map fst

let resolve s =
  match List.find_opt (fun (m : Model.t) -> m.Model.key = s) all with
  | Some m -> Ok m
  | None -> (
      match memo_find s with
      | Some m -> Ok m
      | None -> (
          match Model_ref.parse s with
          | Error e -> Error e
          | Ok r -> (
              match
                List.find_opt (fun f -> f.family = r.Model_ref.family) families
              with
              | None ->
                  Error
                    (Printf.sprintf "unknown model or family %S%s"
                       r.Model_ref.family
                       (match suggest r.Model_ref.family with
                       | Some k -> Printf.sprintf " (did you mean %S?)" k
                       | None -> ""))
              | Some f -> (
                  match f.instantiate r with
                  | Error _ as e -> e
                  | Ok m ->
                      (* Prefer the catalogued exemplar when the
                         reference canonicalizes to its key, then
                         memoize under the canonical key and under the
                         input spelling, so both hit next time. *)
                      let m =
                        match
                          List.find_opt
                            (fun (c : Model.t) -> c.Model.key = m.Model.key)
                            all
                        with
                        | Some canonical -> canonical
                        | None -> memo_add m.Model.key m
                      in
                      let m = if s = m.Model.key then m else memo_add s m in
                      Ok m))))

let find s = Result.to_option (resolve s)
