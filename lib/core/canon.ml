let exact_limit = 6

let is_exact h = History.nprocs h <= exact_limit

(* Encode the history with rows taken in [order], renaming locations to
   first-use indices and nonzero values to per-location first-use
   indices (0 is the implicit initial value of every location and must
   stay fixed).  The encoding is injective on renamed histories: it
   spells out kind, attribute, location, value and interval of every
   operation, with unambiguous separators.

   Object locations ({!Sort}) additionally carry their sort character
   before the location index — a queue history must never collide with
   the register history spelled the same way — and counter locations
   skip value renaming entirely: a counter read's value is an absolute
   count, not an opaque token, so renaming it would conflate
   histories with different counts.  Register encodings are unchanged,
   keeping existing digests (and persistent verdict stores) valid. *)
let encode_order h order =
  let buf = Buffer.create 256 in
  let loc_map = Hashtbl.create 8 in
  let value_maps = Hashtbl.create 8 in
  let rename_loc l =
    match Hashtbl.find_opt loc_map l with
    | Some l' -> l'
    | None ->
        let l' = Hashtbl.length loc_map in
        Hashtbl.add loc_map l l';
        Hashtbl.add value_maps l' (Hashtbl.create 4);
        l'
  in
  let rename_value l' v =
    if v = 0 then 0
    else
      let vm = Hashtbl.find value_maps l' in
      match Hashtbl.find_opt vm v with
      | Some v' -> v'
      | None ->
          let v' = Hashtbl.length vm + 1 in
          Hashtbl.add vm v v';
          v'
  in
  Array.iter
    (fun p ->
      Buffer.add_char buf '|';
      Array.iter
        (fun id ->
          let op = History.op h id in
          let sort = Sort.of_loc h op.Op.loc in
          let l' = rename_loc op.Op.loc in
          let v' =
            match sort with
            | Sort.Counter -> op.Op.value
            | Sort.Register | Sort.Queue -> rename_value l' op.Op.value
          in
          Buffer.add_char buf
            (match op.Op.kind with Op.Read -> 'r' | Op.Write -> 'w');
          if Op.is_labeled op then Buffer.add_char buf '*';
          (match sort with
          | Sort.Register -> ()
          | Sort.Queue -> Buffer.add_char buf 'q'
          | Sort.Counter -> Buffer.add_char buf 'c');
          Buffer.add_string buf (string_of_int l');
          Buffer.add_char buf '=';
          Buffer.add_string buf (string_of_int v');
          (match History.interval h id with
          | None -> ()
          | Some (s, f) ->
              Buffer.add_char buf '@';
              Buffer.add_string buf (string_of_int s);
              Buffer.add_char buf ':';
              Buffer.add_string buf (string_of_int f));
          Buffer.add_char buf ';')
        (History.proc_ops h p))
    order;
  Buffer.contents buf

(* A single row encoded with row-local renaming: invariant under any
   global location renaming and per-location value bijection fixing 0,
   so it can order rows without fixing the renaming first. *)
let row_signature h p = encode_order h [| p |]

let identity n = Array.init n (fun i -> i)

let all_permutations n =
  let rec go acc prefix remaining =
    match remaining with
    | [] -> List.rev prefix :: acc
    | _ ->
        List.fold_left
          (fun acc x ->
            go acc (x :: prefix) (List.filter (fun y -> y <> x) remaining))
          acc remaining
  in
  List.rev_map Array.of_list (go [] [] (List.init n (fun i -> i)))

(* The row order realizing the canonical form: exact minimization over
   all row permutations up to [exact_limit] processors, deterministic
   signature sort (stable, so idempotent) above it. *)
let canonical_order h =
  let n = History.nprocs h in
  if n <= 1 then identity n
  else if n <= exact_limit then
    let best = ref (identity n) in
    let best_enc = ref (encode_order h !best) in
    List.iter
      (fun order ->
        let enc = encode_order h order in
        if enc < !best_enc then begin
          best := order;
          best_enc := enc
        end)
      (all_permutations n);
    !best
  else
    let rows = Array.init n (fun p -> (row_signature h p, p)) in
    let cmp (sa, pa) (sb, pb) =
      match String.compare sa sb with 0 -> compare pa pb | c -> c
    in
    Array.sort cmp rows;
    Array.map snd rows

let encode h = encode_order h (canonical_order h)

(* Rebuild the canonical history as a real History.t, replaying the
   same renaming the encoder applies. *)
let canonicalize h =
  let order = canonical_order h in
  let loc_map = Hashtbl.create 8 in
  let value_maps = Hashtbl.create 8 in
  let rename_loc l =
    match Hashtbl.find_opt loc_map l with
    | Some l' -> l'
    | None ->
        let l' = Hashtbl.length loc_map in
        Hashtbl.add loc_map l l';
        Hashtbl.add value_maps l' (Hashtbl.create 4);
        l'
  in
  let rename_value l' v =
    if v = 0 then 0
    else
      let vm = Hashtbl.find value_maps l' in
      match Hashtbl.find_opt vm v with
      | Some v' -> v'
      | None ->
          let v' = Hashtbl.length vm + 1 in
          Hashtbl.add vm v v';
          v'
  in
  let rows =
    Array.to_list order
    |> List.map (fun p ->
           History.proc_ops h p |> Array.to_list
           |> List.map (fun id ->
                  let op = History.op h id in
                  let sort = Sort.of_loc h op.Op.loc in
                  let l' = rename_loc op.Op.loc in
                  let v' =
                    match sort with
                    | Sort.Counter -> op.Op.value
                    | Sort.Register | Sort.Queue ->
                        rename_value l' op.Op.value
                  in
                  (* The sort prefix survives renaming, so the
                     canonical history classifies identically. *)
                  let loc = Sort.prefix sort ^ "l" ^ string_of_int l' in
                  let labeled = Op.is_labeled op in
                  let at = History.interval h id in
                  match op.Op.kind with
                  | Op.Read -> History.read ~labeled ?at loc v'
                  | Op.Write -> History.write ~labeled ?at loc v'))
  in
  History.make rows

let digest h = Digest.to_hex (Digest.string (encode h))

(* The history exactly as written: rows in their order, location names
   (length-prefixed, so any name is unambiguous) with their interned
   identifiers, and values verbatim.  The leading tag keeps it apart
   from every canonical encoding, which starts with a row separator. *)
let literal_digest h =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "literal";
  for p = 0 to History.nprocs h - 1 do
    Buffer.add_char buf '|';
    Array.iter
      (fun id ->
        let op = History.op h id in
        let name = History.loc_name h op.Op.loc in
        Buffer.add_char buf
          (match op.Op.kind with Op.Read -> 'r' | Op.Write -> 'w');
        if Op.is_labeled op then Buffer.add_char buf '*';
        Printf.bprintf buf "%d:%s#%d=%d" (String.length name) name op.Op.loc
          op.Op.value;
        (match History.interval h id with
        | None -> ()
        | Some (s, f) -> Printf.bprintf buf "@%d:%d" s f);
        Buffer.add_char buf ';')
      (History.proc_ops h p)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let equivalent a b = String.equal (encode a) (encode b)
