(* Integration tests: catalog agreement, pipeline, patterns, principles. *)

module D = Diagres_data
module L = Diagres.Languages

let db = Testutil.db
let schemas = Testutil.schemas

(* ---------------- catalog: E1 cross-language agreement ---------------- *)

let test_catalog_sample_db () =
  List.iter
    (fun e ->
      let results = Diagres.Catalog.eval_all db e in
      let _, first = List.hd results in
      List.iter
        (fun (lang, r) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s agrees" e.Diagres.Catalog.id lang)
            true
            (D.Relation.same_rows first r))
        results;
      match e.Diagres.Catalog.expected_sids with
      | Some sids ->
        Testutil.check_same_rows
          (e.Diagres.Catalog.id ^ " ground truth")
          (Testutil.sids sids) first
      | None -> ())
    Diagres.Catalog.all

let prop_catalog_random_dbs =
  QCheck.Test.make ~name:"catalog queries agree on random databases"
    ~count:12 QCheck.small_int
    (fun seed ->
      let rdb =
        D.Generator.sailors_db ~n_sailors:6 ~n_boats:3 ~n_reserves:10 seed
      in
      List.for_all
        (fun e ->
          let results = Diagres.Catalog.eval_all rdb e in
          let _, first = List.hd results in
          List.for_all (fun (_, r) -> D.Relation.same_rows first r) results)
        Diagres.Catalog.all)

(* ---------------- second vocabulary: drinkers-bars-beers -------------- *)

let ddb = Diagres_data.Drinkers_db.db

let dschemas = Diagres_data.Drinkers_db.schemas

let d2_trc =
  "{ l0.drinker | l0 in Likes : forall f in Frequents (f.drinker = \
   l0.drinker implies exists s in Serves, l in Likes (s.bar = f.bar and \
   l.drinker = f.drinker and l.beer = s.beer)) and exists f0 in Frequents \
   (f0.drinker = l0.drinker) }"

let test_drinkers_ground_truth () =
  let q = Diagres_rc.Trc_parser.parse d2_trc in
  Testutil.check_same_rows "D2 only-bars-they-like"
    (Diagres_data.Drinkers_db.drinker_relation Diagres_data.Drinkers_db.d2_expected)
    (Diagres_rc.Trc.eval ddb q);
  let d1 =
    Diagres_rc.Trc_parser.parse
      "{ f.drinker | f in Frequents : exists s in Serves, l in Likes (s.bar \
       = f.bar and l.drinker = f.drinker and l.beer = s.beer) }"
  in
  Testutil.check_same_rows "D1"
    (Diagres_data.Drinkers_db.drinker_relation Diagres_data.Drinkers_db.d1_expected)
    (Diagres_rc.Trc.eval ddb d1)

let test_drinkers_cross_language () =
  (* D2 through TRC → DRC → RA all agree on the second schema *)
  let q = Diagres_rc.Trc_parser.parse d2_trc in
  let expected = Diagres_rc.Trc.eval ddb q in
  let drc = Diagres_rc.Translate.trc_to_drc dschemas q in
  Testutil.check_same_rows "D2 drc" expected (Diagres_rc.Drc.eval ddb drc);
  let ra = Diagres_rc.Translate.trc_to_ra dschemas q in
  Testutil.check_same_rows "D2 ra" expected (Diagres_ra.Eval.eval ddb ra)

let test_drinkers_pipeline () =
  let q = L.Q_trc (Diagres_rc.Trc_parser.parse d2_trc) in
  Alcotest.(check bool) "pipeline verifies on drinkers db" true
    (Diagres.Pipeline.verify_roundtrip ddb q);
  let r = Diagres.Pipeline.visualize dschemas q Diagres.Pipeline.Relational_diagram in
  Alcotest.(check int) "one panel" 1 r.Diagres.Pipeline.panel_count

(* ---------------- languages dispatch ---------------- *)

let test_language_parse_dispatch () =
  List.iter
    (fun e ->
      ignore (L.parse L.Sql e.Diagres.Catalog.sql);
      ignore (L.parse L.Ra e.Diagres.Catalog.ra);
      ignore (L.parse L.Trc e.Diagres.Catalog.trc);
      ignore (L.parse L.Drc e.Diagres.Catalog.drc);
      ignore (L.parse L.Datalog e.Diagres.Catalog.datalog))
    Diagres.Catalog.all

let test_language_parse_errors () =
  (match L.parse L.Sql "SELECT FROM" with
  | exception Diagres_diag.Diag.Error d ->
    Alcotest.(check string) "sql parse code" "E-SQL-PARSE-001" d.Diagres_diag.Diag.code
  | _ -> Alcotest.fail "bad sql must raise a parse diagnostic");
  match L.parse L.Ra "project[" with
  | exception Diagres_diag.Diag.Error d ->
    Alcotest.(check string) "ra parse code" "E-RA-PARSE-001" d.Diagres_diag.Diag.code
  | _ -> Alcotest.fail "bad ra must raise a parse diagnostic"

(* The served route (lower, plan, run) answers with the reference's rows
   under the reference's column names: [sid], not the lowering's [s_sid];
   [x1] for Datalog, not [s_ans_1].  A view registered from the same text
   ([source]) answers the same. *)
let check_served_as_reference ?source db tag q =
  let reference = L.eval_reference db q in
  let check what served =
    Testutil.check_same_rows (tag ^ what ^ " rows") reference served;
    Alcotest.(check (list string))
      (tag ^ what ^ " header")
      (D.Schema.names (D.Relation.schema reference))
      (D.Schema.names (D.Relation.schema served))
  in
  check "" (L.eval db q).L.result;
  Option.iter
    (fun source ->
      let reg = Diagres.Views.create db in
      check " view"
        (Diagres.Views.result
           (Diagres.Views.register reg ~name:"v" ~lang:(L.lang_of q) ~source)))
    source

let test_served_as_reference () =
  List.iter
    (fun e ->
      List.iter
        (fun (lang, src) ->
          check_served_as_reference ~source:src db
            (e.Diagres.Catalog.id ^ "/" ^ L.name lang)
            (L.parse lang src))
        (Diagres.Catalog.sources e))
    Diagres.Catalog.all;
  (* answer columns the lowering cannot return itself — constants (one the
     database does not hold, too, reached through a DRC equality, a Datalog
     rule the goal reads, or both sides of a UNION) and a field read twice —
     and a SELECT * whose columns come from name resolution *)
  List.iter
    (fun (lang, src) ->
      check_served_as_reference ~source:src db (L.name lang ^ " " ^ src)
        (L.parse lang src))
    [ (L.Trc, "{ s.sid, 3, s.sname, s.sid, 'k' | s in Sailor : s.rating > 9 }");
      (L.Trc, "{ 'k' | s in Sailor : s.rating > 9 }");
      (L.Sql, "SELECT s.sid, 'k', s.sid FROM Sailor s WHERE s.rating > 9");
      (L.Sql, "SELECT * FROM Sailor s WHERE s.rating > 9");
      (L.Sql,
       "SELECT s.sid, 'k' FROM Sailor s WHERE s.rating > 9 UNION \
        SELECT b.bid, 'k' FROM Boat b");
      (L.Drc, "{ x, y | exists n, r, a (Sailor(x, n, r, a) & r > 9) & y = 'k' }");
      (L.Drc, "{ y | y = 'k' }");
      (L.Datalog,
       "p(X, 'k') :- Sailor(X, N, R, A), R > 9.\nq(X, Y) :- p(X, Y).");
      (L.Datalog,
       "q(X, 'k', X) :- Sailor(X, N, R, A), R > 9.\n\
        q(X, 'k', B) :- Reserves(X, B, D).") ];
  let module Q = Diagres.Qgen in
  let st = Random.State.make [| 0x5eed; 15 |] in
  for i = 1 to 40 do
    let tag lang = Printf.sprintf "qgen %s #%d" lang i in
    check_served_as_reference db (tag "sql") (L.Q_sql (Q.gen_sql st schemas));
    check_served_as_reference db (tag "ra") (L.Q_ra (Q.gen_ra st schemas 3));
    check_served_as_reference db (tag "trc") (L.Q_trc (Q.gen_trc st schemas));
    check_served_as_reference db (tag "drc") (L.Q_drc (Q.gen_drc st schemas));
    check_served_as_reference db (tag "datalog")
      (L.Q_datalog (Q.gen_datalog st schemas, "q"))
  done

(* A variable only constants bind, with a different constant in different
   answers, needs a literal relation RA does not have: the served route
   refuses it (E-XLATE-001) rather than range it over the active domain,
   which lacks ['k'] and ['m'] and would answer without those rows. *)
let test_served_refuses_constant_ranges () =
  List.iter
    (fun (lang, src) ->
      match Diagres.Errors.capture (fun () -> L.eval db (L.parse lang src)) with
      | Error d ->
        Alcotest.(check string) src "E-XLATE-001" d.Diagres_diag.Diag.code
      | Ok a ->
        Alcotest.failf "%s: answered %d rows, expected E-XLATE-001" src
          (D.Relation.cardinality a.L.result))
    [ (L.Drc,
       "{ x, y | exists n, r, a (Sailor(x, n, r, a) & r > 9) & \
        (y = 'k' | y = 'm') }");
      (L.Datalog,
       "q(X, 'k') :- Sailor(X, N, R, A), R > 9.\nq(X, 'm') :- Boat(X, N, C).");
      (L.Sql,
       "SELECT s.sid, 'k' FROM Sailor s WHERE s.rating > 9 UNION \
        SELECT b.bid, 'm' FROM Boat b") ]

(* Every subtree of an RA expression, the expression included. *)
let rec ra_subterms (e : Diagres_ra.Ast.t) =
  let module A = Diagres_ra.Ast in
  e
  ::
  (match e with
  | A.Rel _ -> []
  | A.Empty a | A.Select (_, a) | A.Project (_, a) | A.Rename (_, a) ->
    ra_subterms a
  | A.Product (a, b) | A.Join (a, b) | A.Theta_join (_, a, b)
  | A.Union (a, b) | A.Inter (a, b) | A.Diff (a, b) | A.Division (a, b) ->
    ra_subterms a @ ra_subterms b)

(* The calculus lowering ranges every catalog variable over the relation
   that guards it: the lowered plan answers like the source and holds no
   active-domain subterm. *)
let test_to_ra_semantics () =
  let module A = Diagres_ra.Ast in
  (* adom x ends in a projection onto x or a renaming to x *)
  let column_names sub =
    match sub with
    | A.Project (xs, _) -> xs
    | A.Rename (pairs, _) -> List.map snd pairs
    | _ -> []
  in
  List.iter
    (fun e ->
      List.iter
        (fun (lang, src) ->
          let tag = e.Diagres.Catalog.id ^ "/" ^ L.name lang in
          let q = L.parse lang src in
          let ra = L.to_ra schemas q in
          Testutil.check_same_rows ("to_ra " ^ tag) (L.eval_reference db q)
            (Diagres_ra.Eval.eval db ra);
          let subs = ra_subterms ra in
          List.iter
            (fun x ->
              if List.mem (Diagres_rc.Drc_to_ra.adom schemas x) subs then
                Alcotest.failf "%s: lowered plan has the active domain of %s"
                  tag x)
            (List.sort_uniq compare (List.concat_map column_names subs)))
        [ (L.Sql, e.Diagres.Catalog.sql); (L.Trc, e.Diagres.Catalog.trc);
          (L.Drc, e.Diagres.Catalog.drc);
          (L.Datalog, e.Diagres.Catalog.datalog) ])
    Diagres.Catalog.all;
  let q1 = L.parse L.Trc (Diagres.Catalog.find "q1").Diagres.Catalog.trc in
  Alcotest.(check bool)
    "q1 from TRC lowers to joins, no product" false
    (List.exists
       (function A.Product _ -> true | _ -> false)
       (ra_subterms (L.to_ra schemas q1)))

(* ---------------- pipeline ---------------- *)

let test_pipeline_verify_all_catalog () =
  List.iter
    (fun e ->
      let q = L.parse L.Sql e.Diagres.Catalog.sql in
      Alcotest.(check bool)
        ("verified " ^ e.Diagres.Catalog.id)
        true
        (Diagres.Pipeline.verify_roundtrip db q))
    Diagres.Catalog.all

let test_pipeline_formalisms () =
  let e = Diagres.Catalog.find "q3" in
  let q = L.parse L.Sql e.Diagres.Catalog.sql in
  List.iter
    (fun f ->
      match Diagres.Pipeline.visualize schemas q f with
      | r ->
        Alcotest.(check bool)
          (Diagres.Pipeline.formalism_name f ^ " renders")
          true
          (r.Diagres.Pipeline.panel_count >= 1
          && List.for_all (fun s -> String.length s > 0) r.Diagres.Pipeline.panels_svg)
      | exception Diagres.Pipeline.Pipeline_error _ ->
        (* QBE requires the Datalog form; that is the documented behaviour *)
        Alcotest.(check bool) "only qbe may refuse" true
          (f = Diagres.Pipeline.Qbe))
    Diagres.Pipeline.all_formalisms

let test_pipeline_qbe_via_datalog () =
  let e = Diagres.Catalog.find "q3" in
  let q = L.parse L.Datalog e.Diagres.Catalog.datalog in
  let r = Diagres.Pipeline.visualize schemas q Diagres.Pipeline.Qbe in
  Alcotest.(check int) "one rendering" 1 r.Diagres.Pipeline.panel_count

let test_pipeline_union_panels () =
  let e = Diagres.Catalog.find "q4" in
  let q = L.parse L.Sql e.Diagres.Catalog.sql in
  let r = Diagres.Pipeline.visualize schemas q Diagres.Pipeline.Relational_diagram in
  Alcotest.(check int) "two panels" 2 r.Diagres.Pipeline.panel_count

let test_pipeline_run () =
  let _, r, verified =
    Diagres.Pipeline.run db "trc" (Diagres.Catalog.find "q1").Diagres.Catalog.trc "qv"
  in
  Alcotest.(check bool) "verified" true verified;
  Alcotest.(check int) "one panel" 1 r.Diagres.Pipeline.panel_count

(* ---------------- pattern ---------------- *)

let trc = Diagres_rc.Trc_parser.parse

let test_pattern_alpha_renaming () =
  let a = Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q3") in
  let b =
    trc
      "{ x.sid | x in Sailor : forall y in Boat (y.color = 'red' implies \
       exists z in Reserves (z.sid = x.sid and z.bid = y.bid)) }"
  in
  Alcotest.(check bool) "alpha-renamed queries share pattern" true
    (Diagres.Pattern.same_pattern a b)

let test_pattern_distinguishes () =
  let q1 = Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q1") in
  let q2 = Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q2") in
  Alcotest.(check bool) "q1 and q2 differ" false
    (Diagres.Pattern.same_pattern q1 q2)

let test_pattern_constant_abstraction () =
  let a = trc "{ s.sid | s in Sailor : s.rating = 10 }" in
  let b = trc "{ s.sid | s in Sailor : s.rating = 7 }" in
  Alcotest.(check bool) "literal patterns differ" false
    (Diagres.Pattern.same_pattern a b);
  Alcotest.(check bool) "shape patterns agree" true
    (Diagres.Pattern.same_pattern ~abstraction:`Shape a b)

let prop_pattern_invariant_under_renaming =
  QCheck.Test.make
    ~name:"pattern is invariant under tuple-variable renaming" ~count:60
    QCheck.small_int
    (fun seed ->
      (* rename every range variable of a random catalog query with a
         seed-derived fresh name, preserving structure (q4 excluded: its
         disjunction means patterns are defined per panel) *)
      let single_panel_entries = [ "q1"; "q2"; "q3"; "q5" ] in
      let e =
        Diagres.Catalog.find
          (List.nth single_panel_entries (seed mod 4))
      in
      let q = Diagres.Catalog.parsed_trc e in
      let mapping =
        List.mapi
          (fun i (v, _) -> (v, Printf.sprintf "w%d_%d" seed i))
          (q.Diagres_rc.Trc.ranges
          @ (let rec declared f =
               match f with
               | Diagres_rc.Trc.Exists (rs, g) | Diagres_rc.Trc.Forall (rs, g)
                 ->
                 rs @ declared g
               | Diagres_rc.Trc.And (a, b) | Diagres_rc.Trc.Or (a, b)
               | Diagres_rc.Trc.Implies (a, b) ->
                 declared a @ declared b
               | Diagres_rc.Trc.Not g -> declared g
               | _ -> []
             in
             declared q.Diagres_rc.Trc.body))
      in
      let rn v = try List.assoc v mapping with Not_found -> v in
      let term = function
        | Diagres_rc.Trc.Field (v, a) -> Diagres_rc.Trc.Field (rn v, a)
        | c -> c
      in
      let rec formula f =
        match f with
        | Diagres_rc.Trc.True | Diagres_rc.Trc.False -> f
        | Diagres_rc.Trc.Cmp (op, a, b) ->
          Diagres_rc.Trc.Cmp (op, term a, term b)
        | Diagres_rc.Trc.Not g -> Diagres_rc.Trc.Not (formula g)
        | Diagres_rc.Trc.And (a, b) -> Diagres_rc.Trc.And (formula a, formula b)
        | Diagres_rc.Trc.Or (a, b) -> Diagres_rc.Trc.Or (formula a, formula b)
        | Diagres_rc.Trc.Implies (a, b) ->
          Diagres_rc.Trc.Implies (formula a, formula b)
        | Diagres_rc.Trc.Exists (rs, g) ->
          Diagres_rc.Trc.Exists (List.map (fun (v, r) -> (rn v, r)) rs, formula g)
        | Diagres_rc.Trc.Forall (rs, g) ->
          Diagres_rc.Trc.Forall (List.map (fun (v, r) -> (rn v, r)) rs, formula g)
      in
      let q' =
        { Diagres_rc.Trc.head = List.map term q.Diagres_rc.Trc.head;
          ranges = List.map (fun (v, r) -> (rn v, r)) q.Diagres_rc.Trc.ranges;
          body = formula q.Diagres_rc.Trc.body }
      in
      Diagres.Pattern.same_pattern q q')

let test_pattern_complexity () =
  let c = Diagres.Pattern.complexity (Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q3")) in
  Alcotest.(check int) "3 variables" 3 c.Diagres.Pattern.variables;
  Alcotest.(check int) "negation depth 2" 2 c.Diagres.Pattern.negation_depth

(* ---------------- principles ---------------- *)

let test_principles_q3 () =
  let q3 = Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q3") in
  let v1 = Diagres.Principles.invertibility_rd q3 in
  Alcotest.(check bool) "P1" true v1.Diagres.Principles.holds;
  let chain =
    [ trc "{ s.sid | s in Sailor }";
      Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q1");
      q3 ]
  in
  let v5 = Diagres.Principles.faithfulness_rd chain in
  Alcotest.(check bool) "P5" true v5.Diagres.Principles.holds

let test_principles_beta_ambiguity () =
  let sentence =
    Diagres_rc.Drc_parser.parse_formula
      "exists s, b, d (Reserves(s, b, d) & not (exists n, c (Boat(b, n, c))))"
  in
  let v = Diagres.Principles.unambiguity_beta db sentence in
  (* the verdict reports; both outcomes are legitimate but it must not
     raise *)
  Alcotest.(check bool) "verdict produced" true
    (String.length v.Diagres.Principles.evidence > 0)

let test_principles_correspondence () =
  let a = trc "{ s.sid | s in Sailor : s.rating = 10 }" in
  let b = trc "{ x.sid | x in Sailor : x.rating = 7 }" in
  let v = Diagres.Principles.correspondence_rd a b in
  Alcotest.(check bool) "P3 holds for pattern-equal pair" true
    v.Diagres.Principles.holds

let test_principles_economy () =
  let rd = Diagres_diagrams.Relational_diagram.of_trc (Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q3")) in
  let scene = (List.hd rd.Diagres_diagrams.Relational_diagram.panels).Diagres_diagrams.Relational_diagram.scene in
  let v = Diagres.Principles.economy scene in
  Alcotest.(check bool) "P4" true v.Diagres.Principles.holds

(* ---------------- survey ---------------- *)

let test_survey () =
  Alcotest.(check int) "22 systems" 22 (List.length Diagres.Survey.systems);
  Alcotest.(check int) "16 implemented" 16
    (List.length Diagres.Survey.implemented);
  let table = Diagres.Survey.to_table () in
  Alcotest.(check bool) "table mentions QueryVis" true
    (let n = String.length table in
     let rec go i = i + 8 <= n && (String.sub table i 8 = "QueryVis" || go (i + 1)) in
     go 0)

(* verify the implemented-systems claims E10 checks *)
let test_survey_claims_verified () =
  (* "DFQL is relationally complete": every catalog RA expression renders *)
  List.iter
    (fun e ->
      let d = Diagres_diagrams.Dfql.of_ra (Diagres.Catalog.parsed_ra e) in
      Alcotest.(check bool) (e.Diagres.Catalog.id ^ " dfql") true
        (Diagres_diagrams.Dfql.node_count d > 0))
    Diagres.Catalog.all;
  (* "QueryVis does not support disjunction in one diagram": q4 TRC panel
     count is 2 *)
  let panels =
    Diagres_rc.Translate.drawable_panels schemas
      [ Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q4") ]
  in
  Alcotest.(check bool) "q4 needs >1 panel" true (List.length panels > 1)

let () =
  Alcotest.run "core"
    [
      ( "catalog",
        [ Alcotest.test_case "sample db agreement" `Quick
            test_catalog_sample_db;
          Testutil.qtest prop_catalog_random_dbs ] );
      ( "drinkers",
        [ Alcotest.test_case "ground truth" `Quick test_drinkers_ground_truth;
          Alcotest.test_case "cross language" `Quick
            test_drinkers_cross_language;
          Alcotest.test_case "pipeline" `Quick test_drinkers_pipeline ] );
      ( "languages",
        [ Alcotest.test_case "parse dispatch" `Quick
            test_language_parse_dispatch;
          Alcotest.test_case "parse errors" `Quick test_language_parse_errors;
          Alcotest.test_case "to_ra" `Quick test_to_ra_semantics;
          Alcotest.test_case "served = reference" `Quick
            test_served_as_reference;
          Alcotest.test_case "served refuses constant ranges" `Quick
            test_served_refuses_constant_ranges ] );
      ( "pipeline",
        [ Alcotest.test_case "verify catalog" `Quick
            test_pipeline_verify_all_catalog;
          Alcotest.test_case "all formalisms" `Quick test_pipeline_formalisms;
          Alcotest.test_case "qbe via datalog" `Quick
            test_pipeline_qbe_via_datalog;
          Alcotest.test_case "union panels" `Quick test_pipeline_union_panels;
          Alcotest.test_case "run" `Quick test_pipeline_run ] );
      ( "pattern",
        [ Alcotest.test_case "alpha renaming" `Quick
            test_pattern_alpha_renaming;
          Alcotest.test_case "distinguishes" `Quick test_pattern_distinguishes;
          Alcotest.test_case "constant abstraction" `Quick
            test_pattern_constant_abstraction;
          Testutil.qtest prop_pattern_invariant_under_renaming;
          Alcotest.test_case "complexity" `Quick test_pattern_complexity ] );
      ( "principles",
        [ Alcotest.test_case "q3 P1/P5" `Quick test_principles_q3;
          Alcotest.test_case "beta ambiguity" `Quick
            test_principles_beta_ambiguity;
          Alcotest.test_case "correspondence" `Quick
            test_principles_correspondence;
          Alcotest.test_case "economy" `Quick test_principles_economy ] );
      ( "survey",
        [ Alcotest.test_case "matrix" `Quick test_survey;
          Alcotest.test_case "claims verified" `Quick
            test_survey_claims_verified ] );
    ]
