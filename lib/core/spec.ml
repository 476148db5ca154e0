module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel
module Perm = Smem_relation.Perm
open Params

(* ---- decision variables ------------------------------------------- *)

type co_mode = Co_none | Co_per_loc | Co_global

let rf_needed p =
  p.legality = Writer_legal
  || p.ordering = Causal_order
  || p.ordering = Causal_plus_coherence
  || p.mutual = Labeled_sc

let sync_needed p =
  match p.mutual with Labeled_sc | Labeled_total -> true | _ -> false

let co_mode p =
  match (p.mutual, p.ordering) with
  | Global_write_order, _ -> Co_global
  | _, Session _ ->
      (* Session views need not agree on any write order: two views may
         serialize the same writes oppositely, so none is enumerated. *)
      Co_none
  | _ ->
      if p.legality = Writer_legal || p.mutual = Coherence_agreement then
        Co_per_loc
      else Co_none

(* Causal orders must be acyclic outright, and PC-G's views, which each
   hold every write, must agree on one acyclic po ∪ co; the partition
   family, whose views hold only their block's writes, deliberately has
   no such condition. *)
let global_acyclic p =
  match p.ordering with
  | Causal_order | Causal_plus_coherence -> true
  | Program_order ->
      p.population = Own_plus_writes
      && p.mutual = Coherence_agreement
      && p.legality = Value_legal
  | _ -> false

(* ---- ordering ingredients ------------------------------------------ *)

(* Same-processor program-order pairs with a labeled endpoint: the
   two-way fence semantics of a synchronizing access (weak ordering). *)
let fence_edges h =
  let rel = Rel.create (History.nops h) in
  for q = 0 to History.nprocs h - 1 do
    let row = History.proc_ops h q in
    let n = Array.length row in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if
          Op.is_labeled (History.op h row.(i))
          || Op.is_labeled (History.op h row.(j))
        then Rel.add rel row.(i) row.(j)
      done
    done
  done;
  rel

(* §3.4's bracketing conditions, as edges added to every view (the
   restriction to a view's operations implements "in all histories in
   which they both appear"): an ordinary operation program-order-before
   a release precedes it, and — given a reads-from map — the write an
   acquire reads precedes the ordinary operations program-order-after
   the acquire.  Without [rf] only the release half. *)
let brackets h ~rf =
  let rel = Rel.create (History.nops h) in
  for q = 0 to History.nprocs h - 1 do
    let row = History.proc_ops h q in
    let n = Array.length row in
    for i = 0 to n - 1 do
      let op = History.op h row.(i) in
      (match rf with
      | Some rf when Op.is_acquire op ->
          let w = Reads_from.writer rf row.(i) in
          if w <> History.init then
            for j = i + 1 to n - 1 do
              if Op.is_ordinary (History.op h row.(j)) then
                Rel.add rel w row.(j)
            done
      | _ -> ());
      if Op.is_release op then
        for j = 0 to i - 1 do
          if Op.is_ordinary (History.op h row.(j)) then
            Rel.add rel row.(j) row.(i)
        done
    done
  done;
  rel

(* The session guarantees are pairwise axioms over (transitive) program
   order, so every ordered pair of the right kinds contributes an edge.
   Writes-follow-reads quantifies over a reads-from map: without [rf]
   its edges are left out. *)
let session_edges h ~ryw ~mr ~mw ~wfr ~rf =
  let r = Rel.create (History.nops h) in
  for p = 0 to History.nprocs h - 1 do
    let ops = History.proc_ops h p in
    let n = Array.length ops in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let o1 = History.op h ops.(i) and o2 = History.op h ops.(j) in
        if
          (ryw && Op.is_write o1 && Op.is_read o2)
          || (mr && Op.is_read o1 && Op.is_read o2)
          || (mw && Op.is_write o1 && Op.is_write o2)
        then Rel.add r o1.Op.id o2.Op.id
      done
    done
  done;
  (match rf with
  | Some rf when wfr ->
      List.iter
        (fun rd ->
          let w = Reads_from.writer rf rd in
          if w <> History.init then
            let ro = History.op h rd in
            Array.iter
              (fun id ->
                let o' = History.op h id in
                if o'.Op.index > ro.Op.index && Op.is_write o' then
                  Rel.add r w o'.Op.id)
              (History.proc_ops h ro.Op.proc))
        (History.reads h)
  | _ -> ());
  r

(* All (earlier, later) pairs — not just consecutive ones: a view that
   omits an intermediate operation (another processor's labeled read)
   must still order the operations around it. *)
let total_order_rel nops seq =
  let rel = Rel.create nops in
  let n = Array.length seq in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Rel.add rel seq.(i) seq.(j)
    done
  done;
  rel

let chain_rel nops order =
  let rel = Rel.create nops in
  for i = 0 to Array.length order - 2 do
    Rel.add rel order.(i) order.(i + 1)
  done;
  rel

let acquire_ok h r w =
  let op = History.op h r in
  (not (Op.is_acquire op))
  || w = History.init
  || Op.is_labeled (History.op h w)
  || List.for_all
       (fun w' -> Op.is_ordinary (History.op h w'))
       (History.writes_to h op.Op.loc)

let acquire_rf_ok h rf =
  List.for_all
    (fun r -> acquire_ok h r (Reads_from.writer rf r))
    (History.reads h)

(* Legality of a candidate total order on the labeled operations: an
   acquire reading a labeled write must have it as the most recent
   labeled write to the location; one reading the initial value must
   see no earlier labeled write; one reading an ordinary write is exempt
   (acquire_ok has checked the location carries no labeled writes). *)
let labeled_seq_legal h ~rf seq =
  let last = Array.make (max 1 (History.nlocs h)) History.init in
  Array.for_all
    (fun id ->
      let op = History.op h id in
      if Op.is_write op then begin
        last.(op.Op.loc) <- id;
        true
      end
      else
        let w = Reads_from.writer rf id in
        if w = History.init then last.(op.Op.loc) = History.init
        else if Op.is_labeled (History.op h w) then last.(op.Op.loc) = w
        else true)
    seq

(* ---- compiled models ----------------------------------------------- *)

type t = {
  h : History.t;
  p : params;
  views : Engine.view_spec list;
  shared : Rel.t option;
  engine : bool;
      (* writer-legal views under a write serialization: the leaf is the
         acyclicity engine; otherwise a legal-view search per view *)
  empty : Rel.t;  (* the engine's [extra] when a candidate adds no edges *)
  labeled : Bitset.t;  (* the labeled operations, when a phase needs them *)
}

let ops_where h pred =
  let ops = Bitset.create (History.nops h) in
  Array.iter
    (fun (o : Op.t) -> if pred o then Bitset.add ops o.Op.id)
    (History.ops h);
  ops

let is_update h (o : Op.t) =
  Op.is_write o || (Op.is_read o && Sort.of_loc h o.Op.loc = Sort.Queue)

(* The views in witness order, each [view proc ops]. *)
let populations ?partition h p ~view =
  let per_proc f = List.init (History.nprocs h) (fun q -> view q (f q)) in
  match p.population with
  | Shared_all -> [ view (-1) (History.all_ops_set h) ]
  | Per_location ->
      List.init (History.nlocs h) (fun l ->
          view (-1) (ops_where h (fun o -> o.Op.loc = l)))
  | Own_plus_writes -> per_proc (History.view_ops_writes h)
  | Own_plus_updates ->
      per_proc (fun q -> ops_where h (fun o -> o.Op.proc = q || is_update h o))
  | Per_proc_block { blocks } ->
      (* One view per processor per block — own operations on the
         block's locations plus every write to them — skipping empty
         ones. *)
      let block, nblocks =
        match partition with
        | Some f ->
            let b = f h in
            (b, Array.fold_left (fun m x -> max m (x + 1)) 0 b)
        | None ->
            (Array.init (History.nlocs h) (fun l -> l mod blocks), blocks)
      in
      List.concat
        (List.init (History.nprocs h) (fun q ->
             List.filter_map
               (fun b ->
                 let ops =
                   ops_where h (fun o ->
                       block.(o.Op.loc) = b && (o.Op.proc = q || Op.is_write o))
                 in
                 if Bitset.is_empty ops then None else Some (view q ops))
               (List.init nblocks Fun.id)))

(* The order every view shares, when the ordering is one relation:
   exact for the static orderings, and for the candidate-dependent ones
   the part every candidate shares (causal orders contain po, the
   semi-causal order ppo, session orders their rf-free edges).  The
   leaf order is always this ∪ the candidate's edges. *)
let shared_static h p =
  match p.ordering with
  | Program_order | Causal_order | Causal_plus_coherence -> Some (Orders.po h)
  | Po_plus_real_time -> Some (Rel.union (Orders.po h) (Orders.real_time h))
  | Partial_program_order | Semi_causal -> Some (Orders.ppo h)
  | Sync_fences -> Some (Rel.union (fence_edges h) (Orders.po_loc h))
  | Session { ryw; mr; mw; wfr } ->
      Some (session_edges h ~ryw ~mr ~mw ~wfr ~rf:None)
  | Own_program_order | Own_po_plus_po_loc | Own_ppo_bracketed -> None

(* The per-view orders of the owner-relative orderings (release
   consistency's include the rf-free, release half of its brackets). *)
let own_order h p =
  match p.ordering with
  | Own_po_plus_po_loc ->
      let po_loc = Orders.po_loc h in
      fun q -> Rel.union (Orders.po_of_proc h q) po_loc
  | Own_ppo_bracketed ->
      let release = brackets h ~rf:None in
      fun q -> Rel.union (Orders.ppo_of_proc h q) release
  | _ -> Orders.po_of_proc h

let unused_rel = Rel.create 0
let unused_set = Bitset.create 0

let compile ?partition p h =
  let shared = shared_static h p in
  let views =
    match shared with
    | Some order ->
        populations ?partition h p ~view:(fun proc ops ->
            { Engine.proc; ops; order })
    | None ->
        let order_of = own_order h p in
        populations ?partition h p ~view:(fun proc ops ->
            { Engine.proc; ops; order = order_of proc })
  in
  let engine = p.legality = Writer_legal && co_mode p <> Co_none in
  {
    h;
    p;
    views;
    shared;
    engine;
    empty = (if engine then Rel.create (History.nops h) else unused_rel);
    labeled =
      (if sync_needed p || p.mutual = Labeled_pc then
         Bitset.of_list (History.nops h) (History.labeled h)
       else unused_set);
  }

let views s = s.views
let shared_order s = s.shared

(* ---- staged candidates --------------------------------------------- *)

type co = No_co | Per_loc of Coherence.t | Global of int array

(* A candidate as the phases build it: the committed reads-from map and
   labeled order, and [dyn], the candidate-dependent view edges so far.
   [whole] records that [dyn] already contains every view's static
   order, so the leaf uses it as is. *)
type cand = {
  rf : Reads_from.t option;
  rf_rel : Rel.t option;
  sync : int array option;
  dyn : Rel.t option;
  whole : bool;
}

let start = { rf = None; rf_rel = None; sync = None; dyn = None; whole = false }

let add_dyn c rel =
  let dyn = match c.dyn with None -> rel | Some d -> Rel.union d rel in
  { c with dyn = Some dyn }

let with_rf s rf =
  let h = s.h in
  let keep ?(whole = false) dyn =
    let rf_rel = if s.engine then Some (Engine.rf_edges h ~rf) else None in
    Some { rf = Some rf; rf_rel; sync = None; dyn; whole }
  in
  let irreflexive rel =
    if Rel.irreflexive rel then keep ~whole:true (Some rel) else None
  in
  match s.p.ordering with
  | Own_ppo_bracketed ->
      if acquire_rf_ok h rf then keep (Some (brackets h ~rf:(Some rf)))
      else None
  | Causal_order | Causal_plus_coherence ->
      irreflexive (Orders.causal_with h ~po:(Option.get s.shared) ~rf)
  | Session { ryw; mr; mw; wfr = true } ->
      irreflexive (session_edges h ~ryw ~mr ~mw ~wfr:true ~rf:(Some rf))
  | _ -> keep None

let with_sync s c seq =
  let legal =
    s.p.mutual <> Labeled_sc
    || labeled_seq_legal s.h ~rf:(Option.get c.rf) seq
  in
  if not legal then None
  else
    let seq = Array.copy seq in
    Some
      {
        (add_dyn c (total_order_rel (History.nops s.h) seq)) with
        sync = Some seq;
      }

let with_co s c co =
  let h = s.h in
  match (s.p.ordering, s.p.mutual) with
  | Semi_causal, _ ->
      let ppo = Option.get s.shared in
      let sem = Orders.sem_with h ~ppo ~rf:(Option.get c.rf) ~co in
      Option.iter (fun d -> Rel.union_into ~into:sem d) c.dyn;
      Some { c with dyn = Some sem; whole = true }
  | _, Labeled_pc ->
      Some
        (add_dyn c
           (Orders.sem_within h ~members:s.labeled ~rf:(Option.get c.rf) ~co))
  | Causal_plus_coherence, _ ->
      let causal = Option.get c.dyn in
      let order =
        Rel.transitive_closure (Rel.union causal (Coherence.to_rel co))
      in
      if Rel.irreflexive order then
        Some { c with dyn = Some order; whole = true }
      else None
  | _ when not s.engine -> (
      (* Independent views agreeing on a per-location serialization
         respect it as order. *)
      let co_rel = Coherence.to_rel co in
      match s.shared with
      | None -> Some (add_dyn c co_rel)
      | Some static ->
          let order = Rel.union static co_rel in
          Option.iter (fun d -> Rel.union_into ~into:order d) c.dyn;
          if global_acyclic s.p && not (Rel.acyclic order) then None
          else Some { c with dyn = Some order; whole = true })
  | _ -> Some c

(* The witness's notes, ahead of any the acyclicity engine adds, as a
   thunk rendered only when read.  The thunk captures immutable data
   only: a global write order is copied, because the enumerator reuses
   its permutation array. *)
let notes s c co =
  let h = s.h and p = s.p and sync = c.sync and rf = c.rf in
  let write_order =
    match co with Global w -> Some (Array.copy w) | No_co | Per_loc _ -> None
  in
  fun () ->
    let seq_note fmt seq =
      Format.asprintf fmt (History.pp_ops h) (Array.to_list seq)
    in
    let population =
      match p.population with
      | Per_location -> [ "one serialization per location" ]
      | Per_proc_block _ -> [ "one view per processor per block" ]
      | _ -> []
    in
    let write_order =
      match write_order with
      | Some w -> [ seq_note "write order: %a" w ]
      | None -> []
    in
    let sync =
      match (sync, p.mutual) with
      | Some seq, Labeled_total -> [ seq_note "synchronization order: %a" seq ]
      | Some seq, _ -> [ seq_note "labeled order: %a" seq ]
      | None, _ -> []
    in
    let legality =
      match (p.legality, p.ordering, rf) with
      | Object_legal, _, _ ->
          [ "views replay queues FIFO and counters by count" ]
      | Value_legal, Causal_order, Some rf ->
          [ Format.asprintf "writes-before: %a" (Reads_from.pp h) rf ]
      | _, Session { wfr = true; _ }, _ ->
          [ "session guarantees incl. writes-follow-reads" ]
      | _ -> []
    in
    population @ write_order @ sync @ legality

(* The leaf for independent views: one legal linear extension of each
   view's order, searched per view. *)
let legal_views s c =
  let h = s.h in
  let common =
    match (c.dyn, s.shared) with
    | Some d, _ when c.whole -> Some d
    | Some d, Some static -> Some (Rel.union static d)
    | _ -> None
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (v : Engine.view_spec) :: rest -> (
        let ops = v.Engine.ops in
        let order =
          match (common, c.dyn) with
          | Some o, _ -> o
          | None, None -> v.Engine.order
          | None, Some d -> Rel.union v.Engine.order d
        in
        let seq =
          match (s.p.legality, c.rf) with
          | Object_legal, _ -> View.exists_objects h ~ops ~order
          | Writer_legal, Some rf ->
              View.exists h ~ops ~order ~legality:(View.By_writer rf)
          | _ -> View.exists h ~ops ~order ~legality:View.By_value
        in
        match seq with
        | None -> None
        | Some seq -> go ((v.Engine.proc, seq) :: acc) rest)
  in
  go [] s.views

let decide s c co =
  let h = s.h in
  let coh =
    match co with
    | No_co -> None
    | Per_loc co -> Some co
    | Global w -> Some (Coherence.of_write_order h w)
  in
  let staged = match coh with None -> Some c | Some coh -> with_co s c coh in
  match staged with
  | None -> None
  | Some c -> (
      if s.engine then
        let extra =
          match (c.dyn, co) with
          | None, Global w -> chain_rel (History.nops h) w
          | Some d, Global w -> Rel.union d (chain_rel (History.nops h) w)
          | Some d, _ -> d
          | None, _ -> s.empty
        in
        match
          Engine.check ?rf_rel:c.rf_rel h ~rf:(Option.get c.rf)
            ~co:(Option.get coh) ~extra ~views:s.views
        with
        | None -> None
        | Some w ->
            Some
              {
                w with
                Witness.sync = Option.map Array.to_list c.sync;
                notes =
                  (let spec = notes s c co in
                   fun () -> spec () @ w.Witness.notes ());
              }
      else
        let c =
          match co with
          | Global w -> add_dyn c (chain_rel (History.nops h) w)
          | _ -> c
        in
        match legal_views s c with
        | None -> None
        | Some views ->
            Some
              (Witness.per_proc
                 ?rf:(Option.map (Reads_from.pairs h) c.rf)
                 ?sync:(Option.map Array.to_list c.sync)
                 views ~notes:(notes s c co)))

let leaf s ~rf ~sync ~co =
  let ( let* ) = Option.bind in
  let* c = match rf with None -> Some start | Some rf -> with_rf s rf in
  let* c = match sync with None -> Some c | Some seq -> with_sync s c seq in
  decide s c co

(* ---- the enumerator ------------------------------------------------ *)

let witness ?partition p h =
  let s = compile ?partition p h in
  let found = ref None in
  let leaf c co =
    match decide s c co with
    | Some w ->
        found := Some w;
        true
    | None -> false
  in
  let co_phase c =
    match co_mode p with
    | Co_none -> leaf c No_co
    | Co_per_loc -> Coherence.iter h ~f:(fun co -> leaf c (Per_loc co))
    | Co_global ->
        Perm.iter_constrained
          (Array.of_list (History.writes h))
          ~precedes:(Coherence.default_respect h)
          ~f:(fun w ->
            Stats.count_co ();
            leaf c (Global w))
  in
  let sync_phase =
    if not (sync_needed p) then co_phase
    else
      let po = Orders.po h in
      fun c ->
        Rel.linear_extensions ~universe:s.labeled po ~f:(fun seq ->
            match with_sync s c seq with Some c -> co_phase c | None -> false)
  in
  let _ : bool =
    if not (rf_needed p) then sync_phase start
    else
      (* Counter reads return a count, not a written value: under object
         legality they take no part in the reads-from product. *)
      let only =
        match p.legality with
        | Object_legal ->
            Some
              (fun r -> Sort.of_loc h (History.op h r).Op.loc <> Sort.Counter)
        | _ -> None
      in
      Reads_from.iter ?only h ~f:(fun rf ->
          match with_rf s rf with Some c -> sync_phase c | None -> false)
  in
  !found
