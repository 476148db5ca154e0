include Params

type semantics =
  | Derived of params
  | Custom of {
      witness : History.t -> Witness.t option;
      renaming_invariant : bool;
    }

type t = {
  key : string;
  name : string;
  description : string;
  params : params option;
  renaming_invariant : bool;
  witness : History.t -> Witness.t option;
}

let make ~key ~name ~description = function
  | Derived p ->
      {
        key;
        name;
        description;
        params = Some p;
        renaming_invariant = renaming_invariant p;
        witness = Spec.witness p;
      }
  | Custom { witness; renaming_invariant } ->
      { key; name; description; params = None; renaming_invariant; witness }

type engine = Enum | Solve

(* Engine selection is process-global, set once from the CLI before any
   worker domain spawns: every call site that wants a witness goes
   through [witness_of], so flipping the mode reroutes the entire stack
   (Runner, Service, certification) without threading a parameter
   through it.  The solver itself lives above this library
   (Smem_solve depends on Smem_core), so it registers a hook. *)
let engine_mode = ref Enum
let solver_hook : (t -> History.t -> Witness.t option) option ref = ref None

let set_engine e = engine_mode := e
let engine () = !engine_mode
let register_solver f = solver_hook := Some f

let witness_of t h =
  match (!engine_mode, !solver_hook, t.params) with
  | Solve, Some f, Some _ -> f t h
  | _ -> t.witness h

let check t h =
  Stats.count_check ();
  Smem_obs.Trace.span ~cat:"check"
    ~args:
      [
        ("model", Smem_obs.Json.Str t.key);
        ("nops", Smem_obs.Json.Int (History.nops h));
        ("nprocs", Smem_obs.Json.Int (History.nprocs h));
      ]
    ("check/" ^ t.key)
    (fun () -> Stats.time (fun () -> Option.is_some (witness_of t h)))
