(** The paper's parameter triple (§2): the view population, the
    ordering requirement and the mutual-consistency requirement, plus
    the legality discipline the views satisfy.  Pure data, re-exported
    by {!Model}; {!Spec} compiles a value of it into a witness search,
    and the certificate kernel re-derives every obligation it names
    from a history alone. *)

type population =
  | Shared_all  (** one view containing every operation (SC, atomic) *)
  | Own_plus_writes
      (** per-processor views of own operations plus all writes
          ([δp = w]: TSO, PC, RC, PRAM, causal, ...) *)
  | Per_location
      (** one shared view per location containing exactly the accesses
          to it (the coherence model) *)
  | Per_proc_block of { blocks : int }
      (** the partition-consistency family (Cheng–Higham–Kawash): one
          view per processor {e per partition block}, holding the
          owner's operations on the block's locations plus every write
          to them.  Locations are partitioned by interned identifier
          modulo [blocks]; one block recovers a PC-G-like model,
          singleton blocks recover coherence. *)
  | Own_plus_updates
      (** per-processor views of own operations plus every {e update} —
          all writes, and the reads that mutate object state (queue
          dequeues).  On register-only histories this coincides with
          {!Own_plus_writes}; it is the population of the
          object-causal family. *)

type ordering =
  | Program_order  (** po (SC, PRAM, PC-G, coherence) *)
  | Partial_program_order  (** ppo — reads bypass earlier writes (TSO) *)
  | Own_program_order  (** the view owner's po only (local) *)
  | Own_po_plus_po_loc  (** owner's po plus everyone's po_loc (slow) *)
  | Po_plus_real_time  (** po plus interval precedence (atomic) *)
  | Causal_order  (** (po ∪ wb)+ for the committed reads-from map *)
  | Causal_plus_coherence  (** (causal ∪ co)+ (coherent causal) *)
  | Semi_causal  (** (ppo ∪ rwb ∪ rrb)+ (PC) *)
  | Own_ppo_bracketed
      (** owner's ppo plus the §3.4 bracketing edges (RC) *)
  | Sync_fences
      (** two-way fences around labeled accesses plus po_loc (WO) *)
  | Session of { ryw : bool; mr : bool; mw : bool; wfr : bool }
      (** the session-guarantee family (Terry et al., via Almeida's
          consistency framework): the selected program-order /
          writes-before projections, transitively closed.  [ryw]
          read-your-writes keeps each processor's own write→read
          program order; [mr] monotonic reads its own read→read order;
          [mw] monotonic writes every processor's write→write order in
          every view; [wfr] writes-follow-reads orders each read's
          writer before the reader's subsequent writes in every view
          (this one commits to a reads-from map, so it forces
          {!Writer_legal}). *)

type mutual =
  | No_mutual
  | Coherence_agreement
      (** all views order each location's writes identically *)
  | Global_write_order  (** all views order {e all} writes identically *)
  | Labeled_sc
      (** coherence plus one legal linear extension of po on labeled
          operations shared by all views (RC_sc) *)
  | Labeled_pc
      (** coherence plus the labeled subhistory's semi-causality
          (RC_pc) *)
  | Labeled_total
      (** one linear extension of po on labeled operations shared by
          all views, with no coherence requirement (weak ordering) *)

type legality =
  | Value_legal
      (** each read returns the value of the most recent write to its
          location in its view (or the initial 0) *)
  | Writer_legal
      (** each read returns exactly its assigned writer: the witness
          commits to a reads-from map *)
  | Object_legal
      (** each view is a legal sequential history of every object per
          its {!Sort}: registers return the most recent write, queues
          are FIFO, counters return the number of prior increments.
          Reads of rf-able sorts (registers, queues) still commit to a
          reads-from map — it seeds the causal order — while counter
          reads carry no reads-from edge. *)

type params = {
  population : population;
  ordering : ordering;
  mutual : mutual;
  legality : legality;
}

val renaming_invariant : params -> bool
(** Whether the model's verdict is invariant under {!Canon}'s renaming
    (processor permutation, location renaming, per-location value
    bijections fixing [0]).  Every triple is, except a
    {!Per_proc_block} population with two or more blocks: its blocks
    are location identifiers modulo [blocks], and renaming locations
    moves them between blocks. *)

(** {1 Parameter rendering}

    Stable human-and-machine-readable names for the parameter
    dimensions, used by the model catalogue ([smem models], the
    [models] API request) and the documentation. *)

val population_to_string : population -> string
val ordering_to_string : ordering -> string
val mutual_to_string : mutual -> string
val legality_to_string : legality -> string

val params_strings : params -> (string * string) list
(** The quadruple as [(dimension, value)] rows, in the fixed order
    population, ordering, mutual, legality. *)
