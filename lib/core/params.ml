type population =
  | Shared_all
  | Own_plus_writes
  | Per_location
  | Per_proc_block of { blocks : int }
  | Own_plus_updates

type ordering =
  | Program_order
  | Partial_program_order
  | Own_program_order
  | Own_po_plus_po_loc
  | Po_plus_real_time
  | Causal_order
  | Causal_plus_coherence
  | Semi_causal
  | Own_ppo_bracketed
  | Sync_fences
  | Session of { ryw : bool; mr : bool; mw : bool; wfr : bool }

type mutual =
  | No_mutual
  | Coherence_agreement
  | Global_write_order
  | Labeled_sc
  | Labeled_pc
  | Labeled_total

type legality = Value_legal | Writer_legal | Object_legal

type params = {
  population : population;
  ordering : ordering;
  mutual : mutual;
  legality : legality;
}

let population_to_string = function
  | Shared_all -> "shared-all"
  | Own_plus_writes -> "own+writes"
  | Per_location -> "per-location"
  | Per_proc_block { blocks } -> Printf.sprintf "per-proc-block(%d)" blocks
  | Own_plus_updates -> "own+updates"

let ordering_to_string = function
  | Program_order -> "po"
  | Partial_program_order -> "ppo"
  | Own_program_order -> "own-po"
  | Own_po_plus_po_loc -> "own-po+po-loc"
  | Po_plus_real_time -> "po+real-time"
  | Causal_order -> "causal"
  | Causal_plus_coherence -> "causal+co"
  | Semi_causal -> "semi-causal"
  | Own_ppo_bracketed -> "own-ppo+brackets"
  | Sync_fences -> "sync-fences"
  | Session { ryw; mr; mw; wfr } ->
      let flags =
        List.filter_map
          (fun (on, name) -> if on then Some name else None)
          [ (ryw, "ryw"); (mr, "mr"); (mw, "mw"); (wfr, "wfr") ]
      in
      Printf.sprintf "session(%s)" (String.concat "," flags)

let mutual_to_string = function
  | No_mutual -> "none"
  | Coherence_agreement -> "coherence"
  | Global_write_order -> "global-write-order"
  | Labeled_sc -> "labeled-sc"
  | Labeled_pc -> "labeled-pc"
  | Labeled_total -> "labeled-total"

let legality_to_string = function
  | Value_legal -> "value"
  | Writer_legal -> "writer"
  | Object_legal -> "object"

let renaming_invariant p =
  match p.population with
  | Per_proc_block { blocks } -> blocks < 2
  | Shared_all | Own_plus_writes | Per_location | Own_plus_updates -> true

let params_strings p =
  [
    ("population", population_to_string p.population);
    ("ordering", ordering_to_string p.ordering);
    ("mutual", mutual_to_string p.mutual);
    ("legality", legality_to_string p.legality);
  ]
