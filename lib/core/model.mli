(** A memory model, characterized — as in §4 of the paper — by the set
    of system execution histories it allows.  [witness] decides
    membership and, when the history is allowed, exhibits the processor
    views that demonstrate it.

    A model either {e is} its parameter triple (§2 of the paper) — the
    view population, the ordering requirement, the mutual-consistency
    requirement and the legality discipline ({!Params}) — or carries a
    custom witness function; never both.  A triple is pure data: its
    witness search is compiled from it by {!Spec}, and the certificate
    checking kernel ({!Smem_cert.Kernel}) re-derives every obligation
    it names from a history alone, without calling the search engine.
    A custom model (the operational TSO replay, composed {!Build}
    models) cannot be certified. *)

include module type of struct
  include Params
end
(** The parameter triple's types and renderers ({!Params}), re-exported
    so [Model.Shared_all], [Model.params] and friends name them. *)

type semantics =
  | Derived of params
      (** the model is its parameter triple: the witness search is
          {!Spec.witness} of it, and certificates can be checked *)
  | Custom of {
      witness : History.t -> Witness.t option;
      renaming_invariant : bool;
          (** whether the verdict survives {!Canon}'s renaming, stated
              by the model's builder: true for the operational TSO
              replay and {!Build} models, false for named-partition PC,
              whose blocks read location names *)
    }
      (** an operational or ad-hoc model (the operational TSO replay,
          composed {!Build} models, named-partition PC): its own
          witness function, no triple, no certificates *)

type t = private {
  key : string;  (** stable machine-readable identifier, e.g. ["tso"] *)
  name : string;  (** display name, e.g. ["Total Store Ordering"] *)
  description : string;
  params : params option;
      (** the triple of a [Derived] model, [None] for a [Custom] one *)
  renaming_invariant : bool;
      (** every history in one {!Canon} class gets the same verdict:
          {!Params.renaming_invariant} of a [Derived] model's triple, as
          stated by a [Custom] one.  Only then may a verdict be shared
          across a class (the lattice memo, canonical cache keys). *)
  witness : History.t -> Witness.t option;
      (** the model's own witness search: {!Spec.witness} of [params]
          for a [Derived] model *)
}
(** Private: a model is built only through {!make}, so [params],
    [renaming_invariant] and [witness] can never disagree. *)

val make : key:string -> name:string -> description:string -> semantics -> t

val check : t -> History.t -> bool
(** [check m h] — is [h] in the set of histories allowed by [m]?
    Bumps the {!Stats} check counter and accumulates wall time.
    Routes through {!witness_of}, so it honours the selected engine. *)

(** {1 Engine selection}

    Two interchangeable witness searches exist: the enumeration of rf ×
    co candidates compiled by {!Spec} ([Enum], the baseline), and the
    constraint-propagation engine in [Smem_solve] ([Solve]).  The mode
    is process-global and must be set before worker domains spawn; the
    solver registers itself via {!register_solver} (this library cannot
    depend on it).  Models without a parameter triple always fall back
    to their own witness function. *)

type engine = Enum | Solve

val set_engine : engine -> unit
val engine : unit -> engine

val register_solver : (t -> History.t -> Witness.t option) -> unit
(** Install the [Solve] engine's witness function.  Called by
    [Smem_solve.Solve.install]. *)

val witness_of : t -> History.t -> Witness.t option
(** The model's witness through the selected engine: the registered
    solver when the mode is [Solve] and the model has a parameter
    triple, the model's own enumeration otherwise. *)
