(** The constraint-propagation witness engine.

    A drop-in alternative to the models' own enumeration of complete
    reads-from × coherence candidates: legality is decided by a
    backtracking search over {e individual} variables — one writer per
    read, one position per write, one slot per labeled operation — with
    each decision propagated into incrementally maintained transitive
    closures ({!Smem_relation.Closure}) of the per-view ordering
    obligations.  A cycle closed during propagation refutes every
    completion of the current partial assignment at once; cycles found
    while deciding reads-from variables are additionally distilled into
    {!Nogood}s that keep pruning for the rest of the search (and, via
    {!Inc}, across re-checks of an extended history).

    Verdicts are equivalent to the enumerator's by construction:
    propagation only prunes candidates the model's per-candidate check
    would reject, and every fully assigned candidate is validated by
    that same check — {!Smem_core.Spec.leaf}, compiled from the model's
    parameter triple exactly as the enumerator's is.  Witnesses are
    built by the same constructors, so certificates extracted from
    solver runs remain kernel-checkable.  The differential fuzz oracle
    ([Smem_fuzz.Oracle.engines]) tests the equivalence continuously. *)

val witness : Smem_core.Model.t -> Smem_core.History.t -> Smem_core.Witness.t option
(** The solver's witness search.  Falls back to the model's own witness
    function when the model declares no parameter triple, or an
    object-legal one. *)

val check : Smem_core.Model.t -> Smem_core.History.t -> bool

val install : unit -> unit
(** Register {!witness} as the [Solve] engine
    ({!Smem_core.Model.register_solver}); after
    [Smem_core.Model.set_engine Solve], every
    {!Smem_core.Model.check}/[witness_of] call routes through it. *)

(** Incremental re-checking: a session that re-checks a history after
    each appended operation keeps one [Inc.t] per model and reuses the
    learned nogoods whenever the new history is an extension of the
    previous one (same operations, ids preserved — which
    {!Smem_core.History.make}'s row-major id assignment guarantees for
    appends).  Nogoods mention only static program-order structure and
    reads-from assignments over existing operations, so they stay valid
    under extension; anything else resets the store. *)
module Inc : sig
  type t

  val create : Smem_core.Model.t -> t

  val witness : t -> Smem_core.History.t -> Smem_core.Witness.t option
  val check : t -> Smem_core.History.t -> bool

  val nogoods : t -> int
  (** Nogoods currently stored. *)

  val reuses : t -> int
  (** How many calls reused the store (the history extended the
      previous one). *)
end
