(** The product step: one thread of a Lang program acting on one
    operational machine.

    Every explorer of the machine × threads automaton ({!Explore},
    {!Dpor}, {!Races}) takes its transitions from here: how a thread
    reaches its next visible action, how that action acts on the machine,
    and which memory operation it performs.  The explorers differ only in
    policy — which thread fields key a state ({!digest}), their search
    order and reductions, and what they record. *)

type thread = {
  env : Exec.Env.t;
  cont : Ast.stmt list;
  in_cs : bool;  (** inside its critical section *)
  finished : bool;
}

val initial : Ast.program -> thread array
(** Every thread at the start of its code, with empty registers. *)

type transition =
  | Finish of Exec.Env.t  (** the thread terminates with this environment *)
  | Act of Exec.action * Exec.Env.t * Ast.stmt list
      (** the thread performs the action; environment and continuation
          as in {!Exec.At_action} *)

val next : Ast.layout -> fuel:int -> thread -> transition option
(** The next transition of an unfinished thread, after local reduction;
    [None] when the thread runs out of local fuel first (a memory-free
    loop deeper than [fuel]). *)

val nexts : Ast.layout -> fuel:int -> thread array -> transition option array option
(** {!next} of every thread, [None] for the finished ones; [None] overall
    when some thread runs out of local fuel. *)

type event = Smem_machine.Driver.event = {
  proc : int;
  kind : Smem_core.Op.kind;
  loc : int;
  value : int;
  labeled : bool;
}

val apply :
  (module Smem_machine.Machine_sig.MACHINE with type t = 'm) ->
  'm ->
  thread array ->
  int ->
  transition ->
  'm * thread array * event option
(** [apply (module M) machine threads i tr]: thread [i] takes [tr].
    Returns the new machine, a fresh thread array, and the memory
    operation performed: a load with the value it observed, a store, or a
    test-and-set recorded as the labeled write of 1 (the paper's
    footnote 4); [None] for termination and critical-section markers.
    {!Smem_machine.Driver.history_of_trace} turns a run's events into
    its history. *)

val enters_occupied : thread array -> transition -> bool
(** The mutual-exclusion monitor: [tr] enters the critical section while
    a thread is inside it. *)

exception Mutex_violation of string list
(** A schedule that enters an occupied critical section, as its action
    trace, oldest first. *)

val apply_traced :
  (module Smem_machine.Machine_sig.MACHINE with type t = 'm) ->
  'm ->
  thread array ->
  string list ->
  int ->
  transition ->
  'm * thread array * string list
(** {!apply} for the mutual-exclusion checkers: also extends the action
    trace (newest first) with one line per action, e.g.
    ["t0: store loc1 := 1"].
    @raise Mutex_violation when the step {!enters_occupied}. *)

val digest : 'm -> thread array -> (thread -> 'k) -> Digest.t
(** [digest machine threads fields]: the visited-state key of the machine
    and the [fields] of each thread — the MD5 of its [Marshal] image.
    [Hashtbl.hash] only samples a bounded prefix of a value, so the deep
    states of the buffered machines would collide en masse and bucket
    scans turn quadratic; a digest keeps lookups O(state size). *)
