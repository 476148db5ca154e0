(** Engine B: direct construction of legal views by memoized search.

    For memory models with {e no} mutual-consistency requirement (PRAM,
    causal memory, local and slow memory) each processor's view is
    independent, so the checker searches directly for a legal sequence
    of the view's operations that respects a required partial order.
    The search appends one operation at a time, maintaining the memory
    contents implied by the prefix; a read is appendable only if it is
    legal at that point.  Failed (placed-set, memory) states are
    memoized, making the search a reachability problem over a product
    automaton rather than a walk of all interleavings.

    Histories must have at most [Sys.int_size - 1] operations (the
    placed set is encoded as one machine word); litmus-scale histories
    are far below that bound.  Larger histories raise the typed
    {!Too_large} — callers that face untrusted input (the serving
    daemon) catch it and answer with a structured error instead of
    dying. *)

module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel

type legality =
  | By_value
      (** A read is legal when the most recent write to its location in
          the prefix (or the initial value [0]) has the read's value. *)
  | By_writer of Reads_from.t
      (** A read is legal when the most recent write to its location is
          exactly the read's assigned writer ({!History.init} meaning
          "no write yet"). *)

exception Too_large of { nops : int; limit : int }
(** Raised by {!exists} when the history exceeds the word-encoded
    search's capacity ([nops >= Sys.int_size]).  A typed exception
    rather than [Invalid_argument]: the serving daemon maps it to a
    [too-large] response code instead of crashing the worker. *)

val exists :
  ?memoize:bool ->
  History.t ->
  ops:Bitset.t ->
  order:Rel.t ->
  legality:legality ->
  int list option
(** [exists h ~ops ~order ~legality] searches for a legal sequence of
    [ops] that is a linear extension of [order] restricted to [ops].
    Returns the sequence found, or [None].

    [memoize] (default [true]) records failed (placed-set, memory)
    states; disabling it degrades the search to plain backtracking over
    interleavings — exposed only so the ablation benchmark can measure
    what the memoization buys (see bench/main.ml). *)

val exists_objects :
  History.t -> ops:Bitset.t -> order:Rel.t -> int list option
(** A linear extension of [order] restricted to [ops] that replays as a
    legal sequential history of every object per its {!Sort}: registers
    return the most recent write, queues are FIFO, counters return the
    number of prior increments.  Memoizes failed (placed-set,
    object-states) pairs, like {!exists}.
    @raise Too_large as {!exists}. *)
