(** History canonicalization and content digests.

    Almost every model in {!Registry} is symmetric in processor
    identities, uses location identities only for equality, and uses
    values only for equality within a location — except the
    distinguished initial value [0], which every location implicitly
    holds (footnote 1 of the paper).  Real-time intervals, when
    present, are part of the behavior (the atomic model reads them) and
    are preserved verbatim.

    Consequently any combination of
    - a permutation of processors,
    - a renaming of locations, and
    - per-location value bijections that fix [0]
    maps a history to one with exactly the same verdict under every
    such model.  The exceptions are partition consistency with two or
    more blocks and with a named partition: their blocks group
    locations by identifier or by name, so a renaming can change the
    verdict.  A model says which kind it is in
    {!Model.t.renaming_invariant}.

    [canonicalize] picks a distinguished representative of that orbit,
    and [digest] is a stable content hash of it — the cache key used by
    {!Smem_cache} for every renaming-invariant model, so that e.g. the
    store-buffering litmus test written with locations [x, y] and the
    same test written with [a, b] hit the same cache entry.

    For histories of at most {!exact_limit} processors the
    representative is exact: the encoding is minimized over all
    processor permutations, so every member of the orbit canonicalizes
    to the same history.  Above the limit a deterministic heuristic
    (sorting rows by a renaming-invariant signature) is used instead;
    it is still idempotent and verdict-preserving — two equivalent
    histories merely aren't {e guaranteed} to collapse to one digest,
    which costs cache hits, never correctness. *)

val exact_limit : int
(** [6] — the processor count up to which the canonical form is
    minimized over all [nprocs!] row permutations. *)

val is_exact : History.t -> bool
(** Whether [canonicalize] is exact (orbit-collapsing) for this
    history, i.e. [nprocs h <= exact_limit]. *)

val canonicalize : History.t -> History.t
(** The canonical representative.  Idempotent; preserves every model's
    verdict; preserves timing intervals.  Locations are renamed to
    [l0, l1, ...] in first-use order and nonzero values to [1, 2, ...]
    in first-use order per location. *)

val encode : History.t -> string
(** Compact textual encoding of [canonicalize h].  Injective on
    canonical histories: [encode a = encode b] iff the canonical forms
    are identical. *)

val digest : History.t -> string
(** Hex MD5 of [encode h] — the stable content digest. *)

val literal_digest : History.t -> string
(** Hex MD5 of the history exactly as written — row order, location
    names, values, labels and intervals, nothing renamed.  The cache
    key for a model that can tell renamed histories apart
    ({!Model.t.renaming_invariant} false); never equal to a {!digest}
    except by an MD5 collision. *)

val equivalent : History.t -> History.t -> bool
(** [encode a = encode b].  For histories within {!exact_limit} this
    decides orbit equivalence exactly. *)
