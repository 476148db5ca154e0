type verdict = Dpor.verdict = Safe of int | Violation of string list | State_limit

(* The unreduced explorer: every enabled transition of every reachable
   state, keyed by the machine and each thread's (env, cont, in_cs).
   Kept as the differential oracle for the DPOR-backed {!check_mutex}
   and for the pinned state/transition-count regression tests;
   [max_transitions] bounds the work so that [State_limit] accounts for
   explored transitions, not just distinct states. *)
let check_mutex_naive ?(max_states = 2_000_000) ?(max_transitions = 20_000_000)
    ?(fuel = 10_000) (module M : Smem_machine.Machine_sig.MACHINE) program =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  let visited = Hashtbl.create 65_537 in
  let states = ref 0 in
  let transitions = ref 0 in
  let limit_hit = ref false in
  let rec explore machine threads path =
    incr transitions;
    let key =
      Step.digest machine threads (fun (t : Step.thread) -> (t.env, t.cont, t.in_cs))
    in
    if Hashtbl.mem visited key || !limit_hit then ()
    else begin
      incr states;
      if !states > max_states || !transitions > max_transitions then
        limit_hit := true
      else begin
        Hashtbl.add visited key ();
        match Step.nexts layout ~fuel threads with
        | None ->
            (* A thread exceeded its local computation budget: report a
               bounded verdict instead of crashing the exploration. *)
            limit_hit := true
        | Some nexts ->
            Array.iteri
              (fun i ->
                Option.iter (fun tr ->
                    let machine', threads', path' =
                      Step.apply_traced (module M) machine threads path i tr
                    in
                    explore machine' threads' path'))
              nexts;
            List.iter
              (fun machine' -> explore machine' threads (".: internal step" :: path))
              (M.internal machine)
      end
    end
  in
  let verdict =
    try
      explore
        (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout))
        (Step.initial program) [];
      if !limit_hit then State_limit else Safe !states
    with Step.Mutex_violation trace -> Violation trace
  in
  (verdict, !transitions)

(* The production checker is DPOR-backed (ample singletons + sleep sets
   + covering memoization, see {!Dpor}); the naive enumerator above
   stays as its differential oracle. *)
let check_mutex_stats = Dpor.check_mutex_stats

let check_mutex ?max_states ?max_transitions ?fuel m program =
  fst (check_mutex_stats ?max_states ?max_transitions ?fuel m program)

type liveness = Deadlock_free of int | Stuck of int | Liveness_state_limit

let check_deadlock_freedom ?(max_states = 2_000_000) ?(fuel = 10_000)
    (module M : Smem_machine.Machine_sig.MACHINE) program =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  (* Forward pass: build the reachable state graph.  A state is keyed by
     the machine plus each thread's (env, cont, finished): whether a
     thread is inside its critical section is irrelevant to termination. *)
  let key_of machine threads =
    Step.digest machine threads (fun (t : Step.thread) -> (t.env, t.cont, t.finished))
  in
  let successors = Hashtbl.create 65_537 in
  let terminal = Hashtbl.create 97 in
  let limit = ref false in
  let rec explore machine threads =
    let key = key_of machine threads in
    if Hashtbl.mem successors key || !limit then ()
    else if Hashtbl.length successors >= max_states then limit := true
    else begin
      let succs = ref [] in
      let push m' t' =
        succs := key_of m' t' :: !succs;
        explore m' t'
      in
      Hashtbl.add successors key [];
      match Step.nexts layout ~fuel threads with
      | None ->
          (* Same graceful degradation as check_mutex: a fuel-bound
             branch makes the exploration bounded, not an error. *)
          limit := true
      | Some nexts ->
          Array.iteri
            (fun i ->
              Option.iter (fun tr ->
                  let m', t', _ = Step.apply (module M) machine threads i tr in
                  push m' t'))
            nexts;
          List.iter (fun m' -> push m' threads) (M.internal machine);
          Hashtbl.replace successors key !succs;
          if Array.for_all (fun (t : Step.thread) -> t.finished) threads then
            Hashtbl.replace terminal key ()
    end
  in
  explore (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout)) (Step.initial program);
  if !limit then Liveness_state_limit
  else begin
    (* Backward pass: which states can reach a terminal state?  Build
       reverse edges and flood from the terminals. *)
    let reverse = Hashtbl.create 65_537 in
    Hashtbl.iter
      (fun src succs ->
        List.iter
          (fun dst ->
            Hashtbl.replace reverse dst
              (src :: (try Hashtbl.find reverse dst with Not_found -> [])))
          succs)
      successors;
    let alive = Hashtbl.create 65_537 in
    let queue = Queue.create () in
    Hashtbl.iter
      (fun k () ->
        Hashtbl.replace alive k ();
        Queue.add k queue)
      terminal;
    while not (Queue.is_empty queue) do
      let k = Queue.pop queue in
      List.iter
        (fun pred ->
          if not (Hashtbl.mem alive pred) then begin
            Hashtbl.replace alive pred ();
            Queue.add pred queue
          end)
        (try Hashtbl.find reverse k with Not_found -> [])
    done;
    let stuck = Hashtbl.length successors - Hashtbl.length alive in
    if stuck = 0 then Deadlock_free (Hashtbl.length successors) else Stuck stuck
  end

let run_random ?(fuel = 10_000) ?(max_steps = 100_000)
    (module M : Smem_machine.Machine_sig.MACHINE) program ~rand =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  let machine = ref (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout)) in
  let threads = ref (Step.initial program) in
  let violated = ref false in
  let trace = ref [] in
  let step_thread i =
    match Step.next layout ~fuel !threads.(i) with
    | None -> invalid_arg "Explore.run_random: thread ran out of fuel"
    | Some tr ->
        if Step.enters_occupied !threads tr then violated := true;
        let machine', threads', event = Step.apply (module M) !machine !threads i tr in
        machine := machine';
        threads := threads';
        Option.iter (fun e -> trace := e :: !trace) event
  in
  let rec loop steps =
    (* [max_steps] also guards against livelock: a cyclic program can
       spin forever on a machine that lets a stale copy persist with no
       internal work pending, so an unbounded random walk need not
       terminate.  The truncated trace is still a valid history. *)
    if steps >= max_steps then ()
    else
      let runnable =
        List.filter
          (fun i -> not !threads.(i).Step.finished)
          (List.init nthreads Fun.id)
      in
      let internals = M.internal !machine in
      let n = List.length runnable + List.length internals in
      if n = 0 then ()
      else begin
        let k = Random.State.int rand n in
        if k < List.length runnable then step_thread (List.nth runnable k)
        else machine := List.nth internals (k - List.length runnable);
        loop (steps + 1)
      end
  in
  loop 0;
  ( Smem_machine.Driver.history_of_trace ~nprocs:nthreads
      ~loc_names:(Ast.loc_names layout) (List.rev !trace),
    !violated )

let to_verdict ~machine ~subject = function
  | Safe states ->
      Smem_api.Verdict.v ~question:"mutual-exclusion" ~subject
        ~authority:("machine:" ^ machine) ~states
        (Some Smem_api.Verdict.Forbidden)
  | Violation trace ->
      Smem_api.Verdict.v ~question:"mutual-exclusion" ~subject
        ~authority:("machine:" ^ machine) ~notes:trace
        (Some Smem_api.Verdict.Allowed)
  | State_limit ->
      Smem_api.Verdict.v ~question:"mutual-exclusion" ~subject
        ~authority:("machine:" ^ machine)
        ~notes:[ "state or fuel bound hit; verdict undecided" ]
        None
