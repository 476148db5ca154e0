(** Data-race detection over sequentially consistent executions — the
    "properly labeled" program condition of §1/§5 made executable.

    The paper's first approach to weak consistency (release consistency,
    weak ordering) promises sequentially consistent behaviour to
    programs that are {e properly labeled}: every pair of conflicting
    accesses that can occur concurrently is made of labeled
    (synchronization) operations.  Following Adve–Hill, we detect races
    on the {e SC} executions of the program: a race is a reachable state
    in which two different threads are both about to access the same
    location, at least one access is a write (or read-modify-write), and
    at least one is ordinary.  Exhaustive exploration of the SC machine
    decides this exactly for our finite-state programs.

    The library's Bakery program with [~labeled:true] is properly
    labeled and therefore safe on the RC_sc machine (§5); with
    [~labeled:false] it races, and the weak machines break it — the
    test suite demonstrates the contrast. *)

type access = {
  thread : int;
  kind : [ `Read | `Write | `Rmw ];
  loc : int;
  labeled : bool;
}

type verdict =
  | Race_free of int  (** no race on any SC execution; states explored *)
  | Race of access * access
      (** a reachable pair of concurrent conflicting accesses with an
          ordinary participant *)
  | State_limit
      (** the state bound was hit, or a thread exhausted its local fuel
          (a memory-free loop deeper than [fuel]): the search is bounded *)

val access_of_action : int -> Exec.action -> access option
(** The shared-memory access a thread's pending action performs, if
    any ([None] for critical-section markers).  Also used by the DPOR
    explorer to build its dependence relation. *)

val find_race : ?max_states:int -> ?fuel:int -> Ast.program -> verdict
(** Exhaustive race detection over the SC executions of the program. *)

val properly_labeled : ?max_states:int -> Ast.program -> bool
(** [true] iff {!find_race} reports no race ([State_limit] counts as
    not known to be properly labeled, hence [false]). *)

val pp_access : Format.formatter -> access -> unit
