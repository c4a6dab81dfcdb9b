(* Occurrence index in CSR form.  Literal [l] of variable [v] owns slot
   [2 (v - 1)] when positive and [2 (v - 1) + 1] when negative; the
   indices of the clauses containing it are [cls.(off.(s)) ..
   cls.(off.(s + 1) - 1)], ascending.  [off] has [2 num_vars + 1]
   entries, so a literal above the indexed variables has no slot. *)
type csr = { off : int array; cls : int array }

type index =
  | Flat of csr  (* over the formula's own clauses *)
  | Inherited of {
      base : csr;  (* the parent's index: clauses [0, tail_start) *)
      eliminated : int array;  (* sorted; their base occurrences are void *)
      tail_start : int;
      tail_len : int;
      tail : int array;
          (* sorted keys [slot * tail_len + j], one per literal of
             the appended clause [tail_start + j] *)
    }

type edit =
  | Add_clause of Clause.t
  | Remove_clause of int
  | Add_var
  | Eliminate_var of int

type t = {
  num_vars : int;
  clauses : Clause.t array;
  occ : index option Atomic.t;  (* built at most once, published whole *)
}

let validate num_vars clauses =
  if num_vars < 0 then invalid_arg "Formula.create: negative num_vars";
  List.iter
    (fun c ->
      if Clause.max_var c > num_vars then
        invalid_arg
          (Printf.sprintf "Formula.create: clause %s mentions variable above %d"
             (Clause.to_string c) num_vars))
    clauses

let create ~num_vars clauses =
  validate num_vars clauses;
  { num_vars; clauses = Array.of_list clauses; occ = Atomic.make None }

let of_lists ~num_vars lit_lists =
  let clauses = List.filter_map Clause.make_opt lit_lists in
  create ~num_vars clauses

let num_vars t = t.num_vars

let num_clauses t = Array.length t.clauses

let clause t i =
  if i < 0 || i >= Array.length t.clauses then invalid_arg "Formula.clause: index";
  t.clauses.(i)

let clauses t = t.clauses

let iteri f t = Array.iteri f t.clauses

let fold f acc t = Array.fold_left f acc t.clauses

let has_empty_clause t = Array.exists Clause.is_empty t.clauses

let slot l = (2 * (Lit.var l - 1)) + if l < 0 then 1 else 0

(* Two counting passes: count each slot's literals, prefix-sum the
   counts into slot ends, then fill backwards so every end moves down
   to its slot's start and each slot comes out ascending. *)
let build_csr num_vars clauses =
  let nslots = 2 * num_vars in
  let off = Array.make (nslots + 1) 0 in
  Array.iter
    (fun c -> Clause.iter (fun l -> let s = slot l in off.(s) <- off.(s) + 1) c)
    clauses;
  for s = 1 to nslots do
    off.(s) <- off.(s) + off.(s - 1)
  done;
  let cls = Array.make off.(nslots) 0 in
  for i = Array.length clauses - 1 downto 0 do
    Clause.iter
      (fun l ->
        let s = slot l in
        off.(s) <- off.(s) - 1;
        cls.(off.(s)) <- i)
      clauses.(i)
  done;
  { off; cls }

(* First position of the sorted array [a] holding a value >= [x]. *)
let lower_bound a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let mem_sorted a x =
  let k = lower_bound a x in
  k < Array.length a && a.(k) = x

(* The appended segment's index: one key per literal occurrence. *)
let tail_keys added =
  let m = Array.length added in
  let keys = Array.make (Array.fold_left (fun k c -> k + Clause.size c) 0 added) 0 in
  let k = ref 0 in
  Array.iteri
    (fun j c ->
      Clause.iter
        (fun l ->
          keys.(!k) <- (slot l * m) + j;
          incr k)
        c)
    added;
  Array.sort Int.compare keys;
  keys

(* A literal's run of positions, and the clause index at a position. *)
let csr_run c l =
  let v = Lit.var l in
  if v < 1 || 2 * v >= Array.length c.off then (0, 0)
  else
    let s = slot l in
    (c.off.(s), c.off.(s + 1))

let tail_run tail m l =
  if m = 0 || Lit.var l < 1 then (0, 0)
  else
    let lo = slot l * m in
    (lower_bound tail lo, lower_bound tail (lo + m))

let csr_get c k = c.cls.(k)

let tail_get ~tail_start ~tail_len tail k = tail_start + (tail.(k) mod tail_len)

(* Cons the run [lo, hi) onto [acc]. *)
let cons_run get (lo, hi) acc =
  let rec go k acc = if k < lo then acc else go (k - 1) (get k :: acc) in
  go (hi - 1) acc

(* Cons the duplicate-free union of two ascending runs onto [acc],
   walking both from their ends. *)
let cons_union get (alo, ahi) (blo, bhi) acc =
  let rec go ahi bhi acc =
    if ahi <= alo then cons_run get (blo, bhi) acc
    else if bhi <= blo then cons_run get (alo, ahi) acc
    else
      let x = get (ahi - 1) and y = get (bhi - 1) in
      if x > y then go (ahi - 1) bhi (x :: acc)
      else if y > x then go ahi (bhi - 1) (y :: acc)
      else go (ahi - 1) (bhi - 1) (x :: acc)
  in
  go ahi bhi acc

(* Racing domains may both build; the first publish wins and every
   caller reads the published index, so all see identical lists. *)
let index t =
  match Atomic.get t.occ with
  | Some ix -> ix
  | None ->
    let ix = Flat (build_csr t.num_vars t.clauses) in
    if Atomic.compare_and_set t.occ None (Some ix) then ix
    else Option.value (Atomic.get t.occ) ~default:ix

let occurrences t l =
  match index t with
  | Flat c -> cons_run (csr_get c) (csr_run c l) []
  | Inherited { base; eliminated; tail_start; tail_len; tail } ->
    let acc = cons_run (tail_get ~tail_start ~tail_len tail) (tail_run tail tail_len l) [] in
    if mem_sorted eliminated (Lit.var l) then acc
    else cons_run (csr_get base) (csr_run base l) acc

let var_occurrences t v =
  match index t with
  | Flat c -> cons_union (csr_get c) (csr_run c v) (csr_run c (-v)) []
  | Inherited { base; eliminated; tail_start; tail_len; tail } ->
    let acc =
      cons_union
        (tail_get ~tail_start ~tail_len tail)
        (tail_run tail tail_len v) (tail_run tail tail_len (-v)) []
    in
    if mem_sorted eliminated (Lit.var v) then acc
    else cons_union (csr_get base) (csr_run base v) (csr_run base (-v)) acc

(* [sorted] holds parent positions already removed, ascending; the
   surviving clause at current index [i] is the [i]-th parent position
   not in it. *)
let insert_removed i sorted =
  let rec go p = function
    | r :: rest when r <= p -> r :: go (p + 1) rest
    | rest -> p :: rest
  in
  go i sorted

let rec drop_nth k = function
  | [] -> []
  | x :: rest -> if k = 0 then rest else x :: drop_nth (k - 1) rest

(* One pass over the script collects its net effect — parent positions
   removed, clauses appended (already stripped of later eliminations),
   variables eliminated — then the child's clause array is built once. *)
let edit t = function
  | [] -> t
  | edits ->
    let n0 = Array.length t.clauses in
    let num_vars = ref t.num_vars in
    let removed = ref [] and nremoved = ref 0 in
    let added = ref [] and nadded = ref 0 in (* newest first *)
    let eliminated = ref [] in
    let step = function
      | Add_clause c ->
        num_vars := max !num_vars (Clause.max_var c);
        added := c :: !added;
        incr nadded
      | Add_var -> incr num_vars
      | Eliminate_var v ->
        if v < 1 || v > !num_vars then invalid_arg "Formula.eliminate_var: variable";
        eliminated := v :: !eliminated;
        added := List.map (Clause.remove_var v) !added
      | Remove_clause i ->
        let kept = n0 - !nremoved in
        if i < 0 || i >= kept + !nadded then invalid_arg "Formula.remove_clause: index";
        if i >= kept then begin
          added := drop_nth (!nadded - 1 - (i - kept)) !added;
          decr nadded
        end
        else begin
          removed := insert_removed i !removed;
          incr nremoved
        end
    in
    List.iter step edits;
    let removed = Array.of_list !removed in
    let added = Array.of_list (List.rev !added) in
    let eliminated = Array.of_list (List.sort_uniq Int.compare !eliminated) in
    let clauses =
      if Array.length removed = 0 then Array.append t.clauses added
      else begin
        let kept = n0 - Array.length removed in
        let out = Array.make (kept + Array.length added) (Clause.of_array_unchecked [||]) in
        let src = ref 0 and dst = ref 0 in
        let copy_to stop =
          Array.blit t.clauses !src out !dst (stop - !src);
          dst := !dst + stop - !src
        in
        Array.iter
          (fun r ->
            copy_to r;
            src := r + 1)
          removed;
        copy_to n0;
        Array.blit added 0 out kept (Array.length added);
        out
      end
    in
    let strip q v = clauses.(q) <- Clause.remove_var v clauses.(q) in
    if Array.length eliminated > 0 then begin
      match Atomic.get t.occ with
      | Some _ ->
        (* Only the parent clauses its index lists for the variable. *)
        Array.iter
          (fun v ->
            List.iter
              (fun i ->
                let below = lower_bound removed i in
                if not (below < Array.length removed && removed.(below) = i) then
                  strip (i - below) v)
              (var_occurrences t v))
          eliminated
      | None ->
        (* No index to consult, and building one costs more than one
           scan of the parent's clauses. *)
        let gone l = mem_sorted eliminated (Lit.var l) in
        for q = 0 to n0 - Array.length removed - 1 do
          if Clause.exists gone clauses.(q) then Array.iter (strip q) eliminated
        done
    end;
    let occ =
      match Atomic.get t.occ with
      | Some (Flat base) when Array.length removed = 0 ->
        Some
          (Inherited
             { base;
               eliminated;
               tail_start = n0;
               tail_len = Array.length added;
               tail = tail_keys added })
      | Some (Flat _ | Inherited _) | None -> None
    in
    { num_vars = !num_vars; clauses; occ = Atomic.make occ }

let add_clauses t cs = edit t (List.map (fun c -> Add_clause c) cs)

let add_clause t c = edit t [ Add_clause c ]

let remove_clause t i = edit t [ Remove_clause i ]

let add_var t = edit t [ Add_var ]

let eliminate_var t v = edit t [ Eliminate_var v ]

let vars_used t =
  let seen = Hashtbl.create (t.num_vars + 1) in
  Array.iter (fun c -> Clause.iter (fun l -> Hashtbl.replace seen (Lit.var l) ()) c) t.clauses;
  List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) seen [])

let equal a b =
  a.num_vars = b.num_vars
  && Array.length a.clauses = Array.length b.clauses
  && Array.for_all2 Clause.equal a.clauses b.clauses

let to_string t =
  if Array.length t.clauses = 0 then "(true)"
  else String.concat "" (List.map Clause.to_string (Array.to_list t.clauses))
