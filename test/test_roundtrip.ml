(* Cross-language roundtrip fuzz harness.

   Two properties, checked on the catalog queries and on a seeded stream of
   randomly generated well-typed queries (>= 500 by default; override with
   DIAGRES_FUZZ_N):

   1. print -> parse identity: [Languages.to_string] output re-parses under
      the same language's parser to a structurally equal AST, for all five
      languages.
   2. translate -> evaluate equivalence: [Pipeline.translate_text] output
      re-parses under the *target* language's parser and evaluates to the
      same relation as the naive RA evaluation of the source query. *)

module D = Diagres_data
module L = Diagres.Languages
module P = Diagres.Pipeline
module Q = Diagres.Qgen
module Diag = Diagres_diag.Diag

let schemas = Testutil.schemas
let tiny_db = Testutil.tiny_db

let fuzz_n =
  match Sys.getenv_opt "DIAGRES_FUZZ_N" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 500)
  | None -> 500

let state () = Random.State.make [| 0x5eed; 2024 |]

(* ------------------------------------------------------------------ *)
(* Property 1: print -> parse identity.                                *)

let roundtrip_ast tag i (q : L.query) =
  let lang = L.lang_of q in
  let text = L.to_string q in
  match L.parse lang text with
  | q' ->
    if q' <> q then
      Alcotest.failf "%s #%d: %s print->parse changed the AST:\n%s" tag i
        (L.name lang) text
  | exception exn ->
    Alcotest.failf "%s #%d: %s output does not re-parse (%s):\n%s" tag i
      (L.name lang) (Printexc.to_string exn) text

let test_identity_fuzz () =
  let st = state () in
  for i = 1 to fuzz_n do
    roundtrip_ast "trc" i (L.Q_trc (Q.gen_trc st schemas));
    roundtrip_ast "drc" i (L.Q_drc (Q.gen_drc st schemas));
    roundtrip_ast "sql" i (L.Q_sql (Q.gen_sql st schemas));
    roundtrip_ast "ra" i (L.Q_ra (Q.gen_ra st schemas 3));
    roundtrip_ast "datalog" i (L.Q_datalog (Q.gen_datalog st schemas, "q"))
  done

(* ------------------------------------------------------------------ *)
(* Property 2: translate -> evaluate equivalence.                      *)

(* The reference answer is the *naive* RA evaluator on the RA form of the
   source query (not the planner, not the translated text). *)
let reference db q =
  let schemas =
    List.map (fun (n, r) -> (n, D.Relation.schema r)) (D.Database.relations db)
  in
  Diagres_ra.Eval.eval db (L.to_ra schemas q)

let translate_equiv ?(targets = [ L.Sql; L.Ra; L.Trc; L.Drc ]) tag i db
    (q : L.query) =
  let expected = reference db q in
  (* the source query itself must agree with the reference, by its native
     evaluator and by the served route *)
  if not (D.Relation.same_rows expected (L.eval_reference db q)) then
    Alcotest.failf "%s #%d: source eval disagrees with naive RA:\n%s" tag i
      (L.to_string q);
  if not (D.Relation.same_rows expected (L.eval db q).L.result) then
    Alcotest.failf "%s #%d: served answer disagrees with naive RA:\n%s" tag i
      (L.to_string q);
  List.iter
    (fun target ->
      let text =
        try P.translate_text db q target
        with exn ->
          Alcotest.failf "%s #%d: translate to %s raised %s:\n%s" tag i
            (L.name target) (Printexc.to_string exn) (L.to_string q)
      in
      let q' =
        try L.parse target text
        with exn ->
          Alcotest.failf
            "%s #%d: translation to %s does not re-parse (%s):\n%s\n\
             -- source:\n%s"
            tag i (L.name target) (Printexc.to_string exn) text
            (L.to_string q)
      in
      let got, served =
        try (L.eval_reference db q', (L.eval db q').L.result)
        with exn ->
          Alcotest.failf "%s #%d: translated %s query fails to eval (%s):\n%s"
            tag i (L.name target) (Printexc.to_string exn) text
      in
      if not (D.Relation.same_rows got served) then
        Alcotest.failf "%s #%d: translated %s query served differently:\n%s"
          tag i (L.name target) text;
      if not (D.Relation.same_rows expected got) then
        Alcotest.failf
          "%s #%d: translation to %s changed the answer:\n%s\n-- source:\n%s\n\
           expected:\n%s\ngot:\n%s"
          tag i (L.name target) text (L.to_string q)
          (D.Relation.to_string expected)
          (D.Relation.to_string got))
    targets

let test_translate_sql_fuzz () =
  let st = state () in
  for i = 1 to fuzz_n do
    translate_equiv "sql" i tiny_db (L.Q_sql (Q.gen_sql st schemas))
  done

let test_translate_trc_fuzz () =
  let st = state () in
  for i = 1 to fuzz_n do
    translate_equiv "trc" i tiny_db (L.Q_trc (Q.gen_trc st schemas))
  done

let test_translate_drc_fuzz () =
  let st = state () in
  for i = 1 to fuzz_n do
    translate_equiv "drc" i tiny_db (L.Q_drc (Q.gen_drc st schemas))
  done

let test_translate_ra_fuzz () =
  let st = state () in
  let skipped = ref 0 in
  for i = 1 to fuzz_n do
    let e = Q.gen_ra st schemas 3 in
    (* RA shapes with set operators buried under other operators have no
       single-panel TRC form; that is a documented E-XLATE diagnostic, not
       a roundtrip bug, so those inputs are skipped (and counted). *)
    match translate_equiv "ra" i tiny_db (L.Q_ra e) with
    | () -> ()
    | exception Diag.Error d
      when String.length d.Diag.code >= 7
           && String.sub d.Diag.code 0 7 = "E-XLATE" ->
      incr skipped
  done;
  if !skipped > fuzz_n * 5 / 10 then
    Alcotest.failf "too many RA queries skipped as untranslatable: %d/%d"
      !skipped fuzz_n

(* ------------------------------------------------------------------ *)
(* Catalog regressions: q1-q5 in all five languages.                   *)

let catalog_langs =
  [ ("sql", L.Sql); ("ra", L.Ra); ("trc", L.Trc); ("drc", L.Drc);
    ("datalog", L.Datalog) ]

let catalog_src (e : Diagres.Catalog.entry) = function
  | L.Sql -> e.Diagres.Catalog.sql
  | L.Ra -> e.Diagres.Catalog.ra
  | L.Trc -> e.Diagres.Catalog.trc
  | L.Drc -> e.Diagres.Catalog.drc
  | L.Datalog -> e.Diagres.Catalog.datalog

let test_catalog_identity () =
  List.iter
    (fun (e : Diagres.Catalog.entry) ->
      List.iter
        (fun (lname, lang) ->
          let q = L.parse lang (catalog_src e lang) in
          roundtrip_ast (e.Diagres.Catalog.id ^ "/" ^ lname) 0 q)
        catalog_langs)
    Diagres.Catalog.all

(* Translation equivalence runs on the tiny instance, with every catalog
   query in every language.  Per-language agreement on the full sample
   database is covered by the catalog tests in test_core. *)
let test_catalog_translate () =
  List.iter
    (fun (e : Diagres.Catalog.entry) ->
      List.iter
        (fun (lname, lang) ->
          let q = L.parse lang (catalog_src e lang) in
          translate_equiv (e.Diagres.Catalog.id ^ "/" ^ lname) 0 tiny_db q)
        catalog_langs)
    Diagres.Catalog.all

let () =
  Alcotest.run "roundtrip"
    [ ( "catalog",
        [ Alcotest.test_case "print->parse identity, 5 langs" `Quick
            test_catalog_identity;
          Alcotest.test_case "translate->eval equivalence, 5 langs" `Quick
            test_catalog_translate ] );
      ( "fuzz",
        [ Alcotest.test_case "print->parse identity" `Quick test_identity_fuzz;
          Alcotest.test_case "sql translate->eval" `Quick
            test_translate_sql_fuzz;
          Alcotest.test_case "trc translate->eval" `Quick
            test_translate_trc_fuzz;
          Alcotest.test_case "drc translate->eval" `Quick
            test_translate_drc_fuzz;
          Alcotest.test_case "ra translate->eval" `Quick test_translate_ra_fuzz
        ] ) ]
