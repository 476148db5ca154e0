(** One compiled model semantics: a {!Params.params} value, read against
    a history, yields everything a witness search needs — the decision
    variables, each view's population and rf-independent order, the
    staged candidate filters, and the leaf check.  {!witness} drives it
    with the enumeration of complete candidates (the baseline engine);
    the constraint-propagation engine ([Smem_solve]) drives the same
    definitions with its own variable-at-a-time search, so both engines
    decide every candidate by this one code.

    The enumeration walks, in this order:
    - {b reads-from maps} ({!Reads_from.iter}) when {!rf_needed};
      object-legal models exclude counter reads, which carry no writer;
    - {b labeled orders} (linear extensions of program order on the
      labeled operations) when {!sync_needed};
    - {b write orders}: one per location ({!Coherence.iter}) or one
      global order ({!Coherence.default_respect}-constrained
      permutations of every write), per {!co_mode};
    and after each phase rejects the candidates its filters refute:
    acquire reads-from for release consistency, irreflexive causal or
    session orders, labeled-order legality under [Labeled_sc], acyclic
    coherent orders.  A surviving complete candidate is decided by the
    {e leaf}: {!Engine.check} when views are writer-legal under a write
    serialization, otherwise a legal-view search per view
    ({!View.exists}, or {!View.exists_objects} for object legality). *)

module Rel = Smem_relation.Rel

(** {1 Decision variables} *)

type co_mode =
  | Co_none  (** no write order is enumerated *)
  | Co_per_loc  (** one coherence order per location *)
  | Co_global  (** one order on all writes, shared by every view *)

val rf_needed : Params.params -> bool
(** The model commits to a reads-from map. *)

val sync_needed : Params.params -> bool
(** The model commits to a total order on labeled operations. *)

val co_mode : Params.params -> co_mode

val global_acyclic : Params.params -> bool
(** The model's filters require one acyclic order over {e every}
    operation, not just within each view: the causal orders, and
    PC-G's po ∪ co. *)

(** {1 Compiled models} *)

type t
(** A triple read against one history: views, static orders and the
    relations the staged filters need, built once per history. *)

val compile :
  ?partition:(History.t -> int array) -> Params.params -> History.t -> t
(** [partition h], when given, maps each location to its block and
    replaces the [l mod k] block function of a [Per_proc_block]
    population (the named-partition PC instances). *)

val views : t -> Engine.view_spec list
(** One entry per view, in witness order: its processor ([-1] for a
    shared view), its population, and its rf-independent required
    order — exact for static orderings and an under-approximation of
    the leaf order for the candidate-dependent ones, which is what
    propagation needs. *)

val shared_order : t -> Rel.t option
(** The static order when every view has the same one. *)

type co =
  | No_co
  | Per_loc of Coherence.t
  | Global of int array  (** the global write order *)

val leaf :
  t ->
  rf:Reads_from.t option ->
  sync:int array option ->
  co:co ->
  Witness.t option
(** Decide one complete candidate: every filter of every phase, then
    the leaf check.  [rf] must be given iff {!rf_needed}, [sync] iff
    {!sync_needed}, and [co] must match {!co_mode}. *)

(** {1 Shared ingredients} *)

val acquire_ok : History.t -> int -> int -> bool
(** [acquire_ok h r w]: read [r] may read from [w] under release
    consistency — unless [r] is an acquire reading an ordinary write
    to a location that also carries labeled writes, which no legal
    labeled subhistory could explain. *)

val chain_rel : int -> int array -> Rel.t
(** Consecutive-pair edges of a sequence over [nops] operations: the
    global write order as view edges (every write is in every view,
    so the pairs' transitive consequences hold there too). *)

(** {1 The enumerator} *)

val witness :
  ?partition:(History.t -> int array) ->
  Params.params ->
  History.t ->
  Witness.t option
(** The first candidate, in enumeration order, that passes {!leaf}. *)
