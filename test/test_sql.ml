(* Tests for the SQL front-end: parsing, resolution, translation,
   evaluation. *)

module Ast = Diagres_sql.Ast
module D = Diagres_data
module L = Diagres.Languages

let db = Testutil.db
let schemas = Testutil.schemas
let parse = Diagres_sql.Parser.parse
(* answered the way qviz answers: lowered to RA, planned, run *)
let eval src = (L.eval db (L.parse L.Sql src)).L.result

(* the SQL oracle: each SELECT block evaluated as TRC *)
let eval_reference st = L.eval_reference db (L.Q_sql st)

(* ---------------- parser ---------------- *)

let test_parse_basic () =
  match parse "SELECT sid FROM Sailor" with
  | Ast.Query { Ast.select = [ Ast.Item (Ast.Col { Ast.table = None; column = "sid" }, None) ];
                from = [ { Ast.name = "Sailor"; alias = "Sailor" } ];
                where = Ast.True; _ } -> ()
  | _ -> Alcotest.fail "basic select shape"

let test_parse_case_insensitive () =
  let a = parse "select sid from Sailor where rating = 10" in
  let b = parse "SELECT sid FROM Sailor WHERE rating = 10" in
  Alcotest.(check bool) "case-insensitive keywords" true (a = b)

let test_parse_aliases () =
  match parse "SELECT s.sid FROM Sailor AS s" with
  | Ast.Query { Ast.from = [ { Ast.name = "Sailor"; alias = "s" } ]; _ } -> ()
  | _ -> Alcotest.fail "alias with AS"

let test_parse_join_on () =
  match parse "SELECT s.sid FROM Sailor s JOIN Reserves r ON s.sid = r.sid" with
  | Ast.Query { Ast.from = [ _; _ ]; where = Ast.And (Ast.Cmp _, Ast.True); _ } -> ()
  | Ast.Query { Ast.from = [ _; _ ]; where = Ast.And _; _ } -> ()
  | _ -> Alcotest.fail "join...on folded into where"

let test_parse_not_in () =
  match parse "SELECT sid FROM Sailor WHERE sid NOT IN (SELECT sid FROM Reserves)" with
  | Ast.Query { Ast.where = Ast.Not (Ast.In _); _ } -> ()
  | _ -> Alcotest.fail "NOT IN"

let test_parse_set_ops () =
  match parse "SELECT sid FROM Sailor INTERSECT SELECT sid FROM Reserves EXCEPT SELECT bid FROM Boat" with
  | Ast.Except (Ast.Intersect _, _) -> ()
  | _ -> Alcotest.fail "left-assoc set operators"

let test_parse_errors () =
  let fails s =
    match parse s with
    | exception Diagres_sql.Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "should not parse: %s" s
  in
  fails "SELECT FROM Sailor";
  fails "SELECT sid Sailor";
  fails "SELECT sid FROM Sailor WHERE";
  fails "SELECT sid FROM Sailor WHERE sid IN SELECT sid FROM Reserves"

let test_pretty_roundtrip () =
  List.iter
    (fun e ->
      let src = e.Diagres.Catalog.sql in
      let st = parse src in
      let st2 = parse (Diagres_sql.Pretty.to_string st) in
      Alcotest.(check bool) ("pretty roundtrip " ^ e.Diagres.Catalog.id) true
        (st = st2))
    Diagres.Catalog.all

(* ---------------- resolution ---------------- *)

let test_resolve_star () =
  let q = Diagres_sql.Resolve.query schemas (Diagres_sql.Parser.parse_query "SELECT * FROM Boat") in
  Alcotest.(check int) "star expands" 3 (List.length q.Ast.select)

let test_resolve_bare_columns () =
  let q =
    Diagres_sql.Resolve.query schemas
      (Diagres_sql.Parser.parse_query
         "SELECT sname FROM Sailor WHERE rating = 10")
  in
  match q.Ast.select with
  | [ Ast.Item (Ast.Col { Ast.table = Some "Sailor"; _ }, None) ] -> ()
  | _ -> Alcotest.fail "bare column qualified"

let test_resolve_correlation () =
  (* inner query referencing outer alias resolves *)
  let st =
    parse
      "SELECT s.sid FROM Sailor s WHERE EXISTS (SELECT r.sid FROM Reserves \
       r WHERE r.sid = s.sid)"
  in
  ignore (Diagres_sql.Resolve.statement schemas st)

let test_resolve_errors () =
  let fails src =
    match Diagres_sql.Resolve.statement schemas (parse src) with
    | exception Diagres_sql.Resolve.Resolve_error _ -> ()
    | _ -> Alcotest.failf "should not resolve: %s" src
  in
  fails "SELECT zzz FROM Sailor";
  fails "SELECT sid FROM Nowhere";
  fails "SELECT x.sid FROM Sailor s";
  fails "SELECT sid FROM Sailor s, Reserves r";  (* ambiguous sid *)
  fails "SELECT s.sid FROM Sailor s, Sailor s";  (* duplicate alias *)
  fails "SELECT sid FROM Sailor WHERE sid IN (SELECT sid, bid FROM Reserves)"

(* ---------------- evaluation ---------------- *)

let test_eval_catalog () =
  List.iter
    (fun e ->
      match e.Diagres.Catalog.expected_sids with
      | Some sids ->
        Testutil.check_same_rows
          ("sql " ^ e.Diagres.Catalog.id)
          (Testutil.sids sids)
          (eval e.Diagres.Catalog.sql)
      | None -> ())
    Diagres.Catalog.all

let test_eval_in () =
  Testutil.check_same_rows "IN subquery"
    (Testutil.sids [ 22; 31; 64; 74; 95 ])
    (eval "SELECT sid FROM Sailor WHERE sid IN (SELECT sid FROM Reserves)")

let test_eval_not_in () =
  Testutil.check_same_rows "NOT IN"
    (Testutil.sids [ 29; 32; 58; 71; 85 ])
    (eval "SELECT sid FROM Sailor WHERE sid NOT IN (SELECT sid FROM Reserves)")

let test_eval_intersect_except () =
  Testutil.check_same_rows "INTERSECT"
    (Testutil.sids [ 22; 31; 64; 74; 95 ])
    (eval "SELECT sid FROM Sailor INTERSECT SELECT sid FROM Reserves");
  Testutil.check_same_rows "EXCEPT"
    (Testutil.sids [ 29; 32; 58; 71; 85 ])
    (eval "SELECT sid FROM Sailor EXCEPT SELECT sid FROM Reserves")

let test_eval_correlated_double_nesting () =
  (* q3 through the SQL path *)
  Testutil.check_same_rows "division via NOT EXISTS"
    (Testutil.sids D.Sample_db.q3_expected_sids)
    (eval (Diagres.Catalog.find "q3").Diagres.Catalog.sql)

let test_eval_or_where () =
  Testutil.check_same_rows "WHERE with OR"
    (Testutil.sids [ 22; 31; 64; 74; 95 ])
    (eval
       "SELECT s.sid FROM Sailor s, Reserves r, Boat b WHERE s.sid = r.sid \
        AND r.bid = b.bid AND (b.color = 'red' OR b.color = 'green')")

let test_eval_self_join () =
  let r =
    eval
      "SELECT s1.sid, s2.sid FROM Sailor s1, Sailor s2 WHERE s1.rating = \
       s2.rating AND s1.age > s2.age"
  in
  Alcotest.(check int) "pairs" 4 (D.Relation.cardinality r)

(* ---------------- translations ---------------- *)

let test_sql_to_ra_semantics () =
  List.iter
    (fun e ->
      let st = parse e.Diagres.Catalog.sql in
      let ra = Diagres_sql.To_ra.statement schemas st in
      Testutil.check_same_rows
        ("sql→ra " ^ e.Diagres.Catalog.id)
        (eval_reference st)
        (Diagres_ra.Eval.eval db ra))
    Diagres.Catalog.all

let test_sql_to_trc_panels () =
  let st = parse (Diagres.Catalog.find "q4").Diagres.Catalog.sql in
  Alcotest.(check int) "union gives two panels" 2
    (List.length (Diagres_sql.To_trc.statement schemas st))

let test_trc_to_sql_roundtrip () =
  (* TRC → SQL → parse → eval agrees with direct TRC evaluation *)
  List.iter
    (fun e ->
      let q = Diagres_rc.Trc_parser.parse e.Diagres.Catalog.trc in
      let panels = Diagres_rc.Translate.drawable_panels schemas [ q ] in
      let sql_text = Diagres_sql.Of_trc.to_string panels in
      let back = parse sql_text in
      Testutil.check_same_rows
        ("trc→sql " ^ e.Diagres.Catalog.id)
        (Diagres_rc.Trc.eval db q)
        (eval_reference back))
    Diagres.Catalog.all

let prop_ra_to_sql_roundtrip =
  QCheck.Test.make ~name:"RA → TRC → SQL → eval preserves semantics"
    ~count:50
    (Testutil.arbitrary_ra ~fuel:3 ())
    (fun e ->
      let panels = Diagres_rc.Translate.ra_to_trc Testutil.env e in
      match panels with
      | [] -> D.Relation.is_empty (Diagres_ra.Eval.eval db e)
      | _ ->
        let sql_text = Diagres_sql.Of_trc.to_string panels in
        let back = parse sql_text in
        D.Relation.same_rows
          (Diagres_ra.Eval.eval db e)
          (eval_reference back))

let test_sql_depth_and_tables () =
  let st = parse (Diagres.Catalog.find "q3").Diagres.Catalog.sql in
  Alcotest.(check int) "nesting depth" 3 (Ast.statement_depth st);
  Alcotest.(check int) "table occurrences" 3 (Ast.statement_tables st)

let () =
  Alcotest.run "sql"
    [
      ( "parser",
        [ Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "case insensitive" `Quick
            test_parse_case_insensitive;
          Alcotest.test_case "aliases" `Quick test_parse_aliases;
          Alcotest.test_case "join..on" `Quick test_parse_join_on;
          Alcotest.test_case "not in" `Quick test_parse_not_in;
          Alcotest.test_case "set ops" `Quick test_parse_set_ops;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip ] );
      ( "resolve",
        [ Alcotest.test_case "star" `Quick test_resolve_star;
          Alcotest.test_case "bare columns" `Quick test_resolve_bare_columns;
          Alcotest.test_case "correlation" `Quick test_resolve_correlation;
          Alcotest.test_case "errors" `Quick test_resolve_errors ] );
      ( "eval",
        [ Alcotest.test_case "catalog" `Quick test_eval_catalog;
          Alcotest.test_case "IN" `Quick test_eval_in;
          Alcotest.test_case "NOT IN" `Quick test_eval_not_in;
          Alcotest.test_case "INTERSECT/EXCEPT" `Quick
            test_eval_intersect_except;
          Alcotest.test_case "correlated double nesting" `Quick
            test_eval_correlated_double_nesting;
          Alcotest.test_case "OR in WHERE" `Quick test_eval_or_where;
          Alcotest.test_case "self join" `Quick test_eval_self_join ] );
      ( "translate",
        [ Alcotest.test_case "sql→ra" `Quick test_sql_to_ra_semantics;
          Alcotest.test_case "union panels" `Quick test_sql_to_trc_panels;
          Alcotest.test_case "trc→sql roundtrip" `Quick
            test_trc_to_sql_roundtrip;
          Testutil.qtest prop_ra_to_sql_roundtrip;
          Alcotest.test_case "depth/tables stats" `Quick
            test_sql_depth_and_tables ] );
    ]
