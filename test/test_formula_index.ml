(* The CSR occurrence index and the one-pass edit plane: every script
   result equals change-by-change application and a naive clause-list
   model, every occurrence query equals a freshly built index over the
   same clauses (with and without the parent's index built first), an
   inherited index answers a Table-2 edit of ii16a1 without a rebuild,
   and domains racing to build one index read identical lists. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

module F = Ec_cnf.Formula
module C = Ec_cnf.Clause
module Ch = Ec_cnf.Change

let formula = Alcotest.testable (fun fmt f -> Format.pp_print_string fmt (F.to_string f)) F.equal

(* ---- oracle: a script over plain clause lists ---- *)

let naive_apply (nv, cls) = function
  | Ch.Add_clause c -> (max nv (C.max_var c), cls @ [ Array.to_list (C.lits c) ])
  | Ch.Remove_clause i -> (nv, List.filteri (fun j _ -> j <> i) cls)
  | Ch.Add_var -> (nv + 1, cls)
  | Ch.Eliminate_var v -> (nv, List.map (List.filter (fun l -> abs l <> v)) cls)

let of_naive (nv, cls) = F.create ~num_vars:nv (List.map C.of_array_unchecked (List.map Array.of_list cls))

let naive_of f = (F.num_vars f, List.map (fun c -> Array.to_list (C.lits c)) (Array.to_list (F.clauses f)))

(* Every literal of every variable up to two past the count, and 0. *)
let same_occurrences ~expected f =
  let top = F.num_vars f + 2 in
  List.for_all
    (fun l -> F.occurrences f l = F.occurrences expected l)
    (List.init ((2 * top) + 1) (fun k -> k - top))
  && List.for_all
       (fun v -> F.var_occurrences f v = F.var_occurrences expected v)
       (List.init ((2 * top) + 1) (fun k -> k - top))

let fresh f = F.create ~num_vars:(F.num_vars f) (Array.to_list (F.clauses f))

(* ---- generators: scripts valid at every step ---- *)

let gen_clause nv =
  QCheck.Gen.(
    list_size (int_range 1 3) (map2 (fun v p -> if p then v else -v) (int_range 1 nv) bool)
    >|= fun lits -> C.make_opt lits)

(* Added clauses draw from one variable past the count, so a script
   both grows the count through a clause and reuses a variable it just
   eliminated or added. *)
let rec gen_script nv nc k =
  let open QCheck.Gen in
  if k = 0 then return []
  else
    let add =
      gen_clause (nv + 1) >>= function
      | None -> gen_script nv nc (k - 1)
      | Some c ->
        gen_script (max nv (C.max_var c)) (nc + 1) (k - 1) >|= fun rest -> Ch.Add_clause c :: rest
    in
    let remove () =
      int_bound (nc - 1) >>= fun i ->
      gen_script nv (nc - 1) (k - 1) >|= fun rest -> Ch.Remove_clause i :: rest
    in
    let add_var = gen_script (nv + 1) nc (k - 1) >|= fun rest -> Ch.Add_var :: rest in
    let elim () =
      int_range 1 nv >>= fun v ->
      gen_script nv nc (k - 1) >|= fun rest -> Ch.Eliminate_var v :: rest
    in
    frequency
      ([ (3, add); (1, add_var) ]
      @ (if nc > 0 then [ (2, remove ()) ] else [])
      @ if nv > 0 then [ (3, elim ()) ] else [])

let gen_case =
  let open QCheck.Gen in
  int_range 1 6 >>= fun nv ->
  list_size (int_range 0 10) (gen_clause nv) >>= fun cls ->
  let cls = List.filter_map Fun.id cls in
  let nc = List.length cls in
  int_range 0 8 >>= fun k1 ->
  gen_script nv nc k1 >>= fun s1 ->
  let nv1, nc1 =
    List.fold_left
      (fun (nv, nc) -> function
        | Ch.Add_clause c -> (max nv (C.max_var c), nc + 1)
        | Ch.Remove_clause _ -> (nv, nc - 1)
        | Ch.Add_var -> (nv + 1, nc)
        | Ch.Eliminate_var _ -> (nv, nc))
      (nv, nc) s1
  in
  int_range 0 6 >>= fun k2 ->
  gen_script nv1 nc1 k2 >|= fun s2 -> (nv, cls, s1, s2)

let print_case (nv, cls, s1, s2) =
  let script s = String.concat "; " (List.map Ch.to_string s) in
  Printf.sprintf "%s over %d vars\nscript: %s\nthen: %s"
    (F.to_string (F.create ~num_vars:nv cls))
    nv (script s1) (script s2)

let arbitrary_case = QCheck.make ~print:print_case gen_case

(* One case, with the parent's index built first or not: the script
   result equals the change-by-change fold and the naive model, and
   answers every query like a fresh index.  The second script edits
   that child (an inherited index when the first script kept clause
   positions and the index was built). *)
let agrees ~built (nv, cls, s1, s2) =
  let f = F.create ~num_vars:nv cls in
  if built then ignore (F.occurrences f 1);
  let child = Ch.apply_script f s1 in
  let by_step = List.fold_left Ch.apply (F.create ~num_vars:nv cls) s1 in
  let naive = List.fold_left naive_apply (naive_of f) s1 in
  let ok1 =
    F.equal child by_step && F.equal child (of_naive naive)
    && same_occurrences ~expected:(fresh child) child
  in
  if built then ignore (F.occurrences child 1);
  let grandchild = Ch.apply_script child s2 in
  let naive2 = List.fold_left naive_apply naive s2 in
  ok1
  && F.equal grandchild (of_naive naive2)
  && same_occurrences ~expected:(fresh grandchild) grandchild
  && same_occurrences ~expected:(fresh child) child

let prop_unbuilt =
  QCheck.Test.make ~name:"script = fold = naive, index = fresh (parent unbuilt)" ~count:400
    arbitrary_case (agrees ~built:false)

let prop_built =
  QCheck.Test.make ~name:"script = fold = naive, index = fresh (parent built)" ~count:400
    arbitrary_case (agrees ~built:true)

(* The two orderings the one-pass builder must get right. *)
let test_eliminate_then_readd () =
  let f = F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ]; [ 2; 3 ] ] in
  ignore (F.occurrences f 1);
  let g = Ch.apply_script f [ Ch.Eliminate_var 1; Ch.Add_clause (C.make [ 1; -3 ]) ] in
  check formula "stripped, then re-added"
    (F.of_lists ~num_vars:3 [ [ 2 ]; [ 3 ]; [ 2; 3 ]; [ 1; -3 ] ])
    g;
  check Alcotest.(list int) "v1 keeps only its appended occurrence" [ 3 ] (F.var_occurrences g 1);
  check Alcotest.(list int) "~v3 across both segments" [ 3 ] (F.occurrences g (-3));
  check Alcotest.(list int) "v3 across both segments" [ 1; 2 ] (F.occurrences g 3);
  let h = Ch.apply_script f [ Ch.Add_clause (C.make [ 1; -3 ]); Ch.Eliminate_var 1 ] in
  check formula "added, then stripped"
    (F.of_lists ~num_vars:3 [ [ 2 ]; [ 3 ]; [ 2; 3 ]; [ -3 ] ])
    h;
  check Alcotest.(list int) "v1 gone" [] (F.var_occurrences h 1)

let test_add_var_then_clauses () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ] ] in
  ignore (F.occurrences f 1);
  let g =
    Ch.apply_script f
      [ Ch.Add_var; Ch.Add_clause (C.make [ 3; -1 ]); Ch.Add_clause (C.make [ -3 ]); Ch.Add_var ]
  in
  check Alcotest.int "vars" 4 (F.num_vars g);
  check Alcotest.(list int) "new v3" [ 1 ] (F.occurrences g 3);
  check Alcotest.(list int) "new ~v3" [ 2 ] (F.occurrences g (-3));
  check Alcotest.(list int) "v1 old and new" [ 0; 1 ] (F.var_occurrences g 1);
  check Alcotest.(list int) "unconstrained v4" [] (F.var_occurrences g 4);
  check Alcotest.(list int) "beyond the count" [] (F.occurrences g 9)

let test_errors () =
  let f = F.of_lists ~num_vars:2 [ [ 1; 2 ]; [ -1 ] ] in
  let raises name script =
    check Alcotest.bool name true
      (match Ch.apply_script f script with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "eliminate above the count" [ Ch.Eliminate_var 3 ];
  raises "remove past the end" [ Ch.Remove_clause 2 ];
  raises "remove after removal shrank it" [ Ch.Remove_clause 0; Ch.Remove_clause 1 ];
  check formula "eliminate a variable the script added"
    (F.of_lists ~num_vars:3 [ [ 1; 2 ]; [ -1 ] ])
    (Ch.apply_script f [ Ch.Add_var; Ch.Eliminate_var 3 ]);
  check Alcotest.bool "empty script is the formula itself" true (Ch.apply_script f [] == f)

(* ---- cost: an inherited index is not rebuilt ---- *)

(* Words allocated by [f], minor and major (a promoted word was
   already counted in the minor heap); the minor heap is emptied first
   so that only [f]'s words can be promoted. *)
let allocated_words f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let ii16a1 () = (Ec_instances.Registry.build (Ec_instances.Registry.find "ii16a1")).formula

(* A Table-2 script (3 eliminations, 10 additions) on ii16a1 with the
   parent's index built; the cone's [var_occurrences] must allocate in
   proportion to the occurrences returned — a cons cell per index plus
   a constant per call — where rebuilding the index would allocate at
   least one word per literal (71,062). *)
let test_no_rebuild () =
  let f = ii16a1 () in
  let reference =
    match Ec_sat.Cdcl.solve_formula f with
    | Ec_sat.Outcome.Sat a -> a
    | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> Alcotest.fail "ii16a1 is satisfiable"
  in
  ignore (F.occurrences f 1);
  let script = Ch.fast_ec_script (Ec_util.Rng.create 14) f ~eliminate:3 ~add:10 ~clause_width:3 in
  check Alcotest.int "Table-2 script" 13 (List.length script);
  (* The cone comes from a twin of the child, so the measured queries
     are the first ones [g] answers. *)
  let g = Ch.apply_script f script in
  let reference = Ec_cnf.Assignment.extend reference (F.num_vars g) in
  let cone = (Ec_core.Fast_ec.simplify (Ch.apply_script f script) reference).Ec_core.Fast_ec.vars in
  check Alcotest.bool "non-empty cone" true (cone <> []);
  let returned, words =
    allocated_words (fun () ->
        List.fold_left (fun k v -> k + List.length (F.var_occurrences g v)) 0 cone)
  in
  let literals = Array.fold_left (fun k c -> k + C.size c) 0 (F.clauses f) in
  let bound = float_of_int ((3 * returned) + (64 * List.length cone) + 1024) in
  if words > bound then
    Alcotest.failf "%.0f words for %d occurrences of %d cone variables (bound %.0f)" words
      returned (List.length cone) bound;
  check Alcotest.bool "bound sits below one word per literal" true
    (bound < float_of_int literals);
  check Alcotest.bool "answers equal a fresh index" true
    (List.for_all (fun v -> F.var_occurrences g v = F.var_occurrences (fresh g) v) cone)

(* Two domains force one unbuilt index at once; both read the same
   lists as a sequential build. *)
let test_concurrent_force () =
  let base = ii16a1 () in
  let all f = List.init (F.num_vars f) (fun v -> F.var_occurrences f (v + 1)) in
  let expected = all (fresh base) in
  let shared = fresh base in
  let go = Atomic.make false in
  let racer () =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        all shared)
  in
  let d1 = racer () and d2 = racer () in
  Atomic.set go true;
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  check Alcotest.bool "first domain" true (r1 = expected);
  check Alcotest.bool "second domain" true (r2 = expected)

let tests =
  [ ( "cnf.formula-index",
      [ Alcotest.test_case "eliminate, then re-add the variable" `Quick test_eliminate_then_readd;
        Alcotest.test_case "add a variable, then clauses over it" `Quick test_add_var_then_clauses;
        Alcotest.test_case "script errors and the empty script" `Quick test_errors;
        Alcotest.test_case "inherited index: no rebuild on ii16a1" `Quick test_no_rebuild;
        Alcotest.test_case "two domains force one index" `Quick test_concurrent_force;
        qtest prop_unbuilt;
        qtest prop_built ] ) ]
