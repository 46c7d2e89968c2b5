(* Tests for all diagrammatic formalisms. *)

module G = Diagres_diagrams
module P = Diagres_logic.Prop
module F = Diagres_logic.Fol
module D = Diagres_data

let db = Testutil.db
let schemas = Testutil.schemas

(* ---------------- Venn ---------------- *)

let test_venn_statements () =
  let d = G.Venn.of_statements [ "A"; "B" ] [ G.Venn.All_are ("A", "B") ] in
  (* zone A∖B (bit0 only) must be shaded *)
  Alcotest.(check bool) "A∖B shaded" true (List.mem 1 d.G.Venn.shaded);
  let d2 = G.Venn.of_statements [ "A"; "B" ] [ G.Venn.Some_are ("A", "B") ] in
  Alcotest.(check int) "one xseq" 1 (List.length d2.G.Venn.xseqs)

let test_venn_entailment () =
  let premises =
    G.Venn.of_statements [ "A"; "B"; "C" ]
      [ G.Venn.All_are ("A", "B"); G.Venn.All_are ("B", "C") ]
  in
  let conclusion =
    G.Venn.of_statements [ "A"; "B"; "C" ] [ G.Venn.All_are ("A", "C") ]
  in
  Alcotest.(check bool) "barbara" true (G.Venn.entails premises conclusion);
  let wrong =
    G.Venn.of_statements [ "A"; "B"; "C" ] [ G.Venn.All_are ("C", "A") ]
  in
  Alcotest.(check bool) "converse invalid" false (G.Venn.entails premises wrong)

let test_venn_inconsistency () =
  let d =
    G.Venn.of_statements [ "A"; "B" ]
      [ G.Venn.All_are ("A", "B"); G.Venn.Some_are_not ("A", "B") ]
  in
  Alcotest.(check bool) "contradiction detected" true (G.Venn.inconsistent d)

let prop_venn_entails_sound_complete =
  QCheck.Test.make
    ~name:"Venn: syntactic entailment = semantic entailment" ~count:120
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let rand = Random.State.make [| s1; s2 |] in
      let stmt () =
        let pick () =
          List.nth [ "A"; "B"; "C" ] (Random.State.int rand 3)
        in
        let a = pick () in
        let rec other () = let b = pick () in if b = a then other () else b in
        let b = other () in
        match Random.State.int rand 4 with
        | 0 -> G.Venn.All_are (a, b)
        | 1 -> G.Venn.No_are (a, b)
        | 2 -> G.Venn.Some_are (a, b)
        | _ -> G.Venn.Some_are_not (a, b)
      in
      let d1 = G.Venn.of_statements [ "A"; "B"; "C" ] [ stmt (); stmt () ] in
      let d2 = G.Venn.of_statements [ "A"; "B"; "C" ] [ stmt () ] in
      G.Venn.entails d1 d2 = G.Venn.entails_semantic d1 d2)

let prop_venn_fol_agree =
  QCheck.Test.make ~name:"Venn: diagram satisfaction = FOL truth" ~count:80
    QCheck.(pair small_int small_int)
    (fun (seed, pick) ->
      let stmts =
        [ G.Venn.All_are ("P", "Q"); G.Venn.No_are ("P", "R");
          G.Venn.Some_are ("Q", "R"); G.Venn.Some_are_not ("Q", "P") ]
      in
      let st = List.nth stmts (pick mod 4) in
      let d = G.Venn.of_statements [ "P"; "Q"; "R" ] [ st ] in
      let mdb = Testutil.monadic_db seed in
      let via_zones = G.Venn.satisfies d (G.Venn.model_of_db d mdb) in
      let via_fol = Diagres_rc.Drc.eval_sentence mdb (G.Venn.to_fol d) in
      via_zones = via_fol)

(* ---------------- Euler ---------------- *)

let test_euler_embedding () =
  let e =
    G.Euler.of_statements [ "A"; "B" ] [ G.Venn.All_are ("A", "B") ]
  in
  let v = G.Euler.to_venn e in
  Alcotest.(check bool) "same shading" true (List.mem 1 v.G.Venn.shaded)

let test_euler_refusal () =
  match
    G.Euler.of_statements [ "A"; "B" ]
      [ G.Venn.All_are ("A", "B"); G.Venn.Some_are_not ("A", "B") ]
  with
  | exception G.Euler.Euler_error _ -> ()
  | _ -> Alcotest.fail "inconsistent statements must have no Euler diagram"

let test_euler_entails () =
  let e1 =
    G.Euler.of_statements [ "A"; "B"; "C" ]
      [ G.Venn.All_are ("A", "B"); G.Venn.All_are ("B", "C") ]
  in
  let e2 = G.Euler.of_statements [ "A"; "B"; "C" ] [ G.Venn.All_are ("A", "C") ] in
  Alcotest.(check bool) "barbara via euler" true (G.Euler.entails e1 e2)

(* ---------------- Venn-Peirce ---------------- *)

let test_venn_peirce_disjunction () =
  let d1 = G.Venn.of_statements [ "A"; "B" ] [ G.Venn.All_are ("A", "B") ] in
  let d2 = G.Venn.of_statements [ "A"; "B" ] [ G.Venn.No_are ("A", "B") ] in
  let vp = G.Venn_peirce.disjoin [ d1 ] [ d2 ] in
  Alcotest.(check int) "two alternatives" 2 (List.length (G.Venn_peirce.alternatives vp));
  (* each disjunct entails the disjunction *)
  Alcotest.(check bool) "d1 ⊨ vp" true (G.Venn_peirce.entails [ d1 ] vp);
  Alcotest.(check bool) "vp ⊭ d1" false (G.Venn_peirce.entails vp [ d1 ])

let prop_venn_peirce_entails_sound =
  QCheck.Test.make ~name:"Venn-Peirce: entailment sound vs semantics"
    ~count:60 QCheck.small_int
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let stmt () =
        match Random.State.int rand 4 with
        | 0 -> G.Venn.All_are ("A", "B")
        | 1 -> G.Venn.No_are ("A", "B")
        | 2 -> G.Venn.Some_are ("A", "B")
        | _ -> G.Venn.Some_are_not ("A", "B")
      in
      let mk () = G.Venn.of_statements [ "A"; "B" ] [ stmt () ] in
      let d1 = [ mk (); mk () ] and d2 = [ mk () ] in
      (* syntactic implies semantic *)
      (not (G.Venn_peirce.entails d1 d2))
      || G.Venn_peirce.entails_semantic d1 d2)

(* ---------------- Syllogisms ---------------- *)

let test_syllogism_counts () =
  Alcotest.(check int) "256 moods" 256 (List.length G.Syllogism.all_moods);
  let valid = List.filter G.Syllogism.valid_venn G.Syllogism.all_moods in
  Alcotest.(check int) "15 valid (modern)" 15 (List.length valid);
  let traditional =
    List.filter (G.Syllogism.valid_venn ~existential_import:true)
      G.Syllogism.all_moods
  in
  Alcotest.(check int) "24 valid (existential import)" 24
    (List.length traditional)

let test_syllogism_named_forms () =
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ " valid") true (G.Syllogism.valid_venn m))
    G.Syllogism.valid_modern

let test_syllogism_venn_matches_semantic () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("mood " ^ G.Syllogism.mood_to_string m)
        (G.Syllogism.valid_semantic m) (G.Syllogism.valid_venn m))
    G.Syllogism.all_moods

let prop_valid_syllogisms_hold_on_dbs =
  QCheck.Test.make ~name:"valid moods hold as FOL on random monadic DBs"
    ~count:60
    QCheck.(pair small_int small_int)
    (fun (i, seed) ->
      let _, m = List.nth G.Syllogism.valid_modern (i mod 15) in
      let mdb =
        D.Generator.monadic_db ~universe:6 ~preds:[ "S"; "M"; "P" ] seed
      in
      Diagres_rc.Drc.eval_sentence mdb (G.Syllogism.to_fol m))

(* ---------------- Alpha graphs ---------------- *)

let prop_alpha_roundtrip =
  QCheck.Test.make ~name:"alpha: of_prop/to_prop preserves equivalence"
    ~count:150 (Testutil.arbitrary_prop ())
    (fun f -> P.equivalent f (G.Eg_alpha.to_prop (G.Eg_alpha.of_prop f)))

let test_alpha_rules_modus_ponens () =
  let g0 = G.Eg_alpha.of_prop (P.And (P.Var "p", P.Implies (P.Var "p", P.Var "q"))) in
  let g1 = G.Eg_alpha.deiterate g0 ~path:[ 1 ] ~index:0 in
  let g2 = G.Eg_alpha.double_cut_erase g1 ~path:[] ~index:1 in
  let g3 = G.Eg_alpha.erase g2 ~path:[] ~index:0 in
  Alcotest.(check bool) "conclusion is q" true
    (P.equivalent (G.Eg_alpha.to_prop g3) (P.Var "q"));
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "step sound" true (G.Eg_alpha.step_sound a b))
    [ (g0, g1); (g1, g2); (g2, g3) ]

let test_alpha_rule_side_conditions () =
  let g = G.Eg_alpha.of_prop (P.Implies (P.Var "p", P.Var "q")) in
  (* erasing inside a negative area is forbidden *)
  (match G.Eg_alpha.erase g ~path:[ 0 ] ~index:0 with
  | exception G.Eg_alpha.Rule_violation _ -> ()
  | _ -> Alcotest.fail "erasure in negative area must fail");
  (* inserting into a positive area is forbidden *)
  (match G.Eg_alpha.insert g ~path:[] (G.Eg_alpha.Atom "r") with
  | exception G.Eg_alpha.Rule_violation _ -> ()
  | _ -> Alcotest.fail "insertion into positive area must fail");
  (* deiterating without a copy is forbidden *)
  match G.Eg_alpha.deiterate g ~path:[ 0 ] ~index:0 with
  | exception G.Eg_alpha.Rule_violation _ -> ()
  | _ -> Alcotest.fail "deiteration without copy must fail"

let prop_alpha_insertion_sound =
  QCheck.Test.make ~name:"alpha: insertion into negative area is sound"
    ~count:100 (Testutil.arbitrary_prop ~fuel:3 ())
    (fun f ->
      let g = G.Eg_alpha.of_prop (P.Not f) in
      (* area [0] is inside the cut: negative *)
      match G.Eg_alpha.insert g ~path:[ 0 ] (G.Eg_alpha.Atom "w") with
      | g' -> G.Eg_alpha.step_sound g g'
      | exception G.Eg_alpha.Bad_path _ -> true
      | exception G.Eg_alpha.Rule_violation _ -> true)

let prop_alpha_double_cut_equiv =
  QCheck.Test.make ~name:"alpha: double cut preserves equivalence" ~count:100
    (Testutil.arbitrary_prop ~fuel:3 ())
    (fun f ->
      let g = G.Eg_alpha.of_prop f in
      let g' = G.Eg_alpha.double_cut_insert g ~path:[] in
      P.equivalent (G.Eg_alpha.to_prop g) (G.Eg_alpha.to_prop g'))

let prop_alpha_erasure_weakens =
  QCheck.Test.make ~name:"alpha: erasure on the sheet weakens" ~count:100
    (Testutil.arbitrary_prop ~fuel:3 ())
    (fun f ->
      let g = G.Eg_alpha.of_prop (P.And (f, P.Var "z")) in
      if g = [] then true
      else
        match G.Eg_alpha.erase g ~path:[] ~index:0 with
        | g' -> G.Eg_alpha.step_sound g g'
        | exception G.Eg_alpha.Bad_path _ -> true)

(* ---------------- Beta graphs ---------------- *)

let prop_beta_roundtrip =
  QCheck.Test.make
    ~name:"beta: of_drc/to_drc preserves truth on monadic DBs" ~count:80
    (QCheck.pair (Testutil.arbitrary_fol_sentence ~fuel:3 ()) QCheck.small_int)
    (fun (f, seed) ->
      let mdb = Testutil.monadic_db seed in
      match G.Eg_beta.of_drc f with
      | g ->
        let back = G.Eg_beta.to_drc g in
        Diagres_rc.Drc.eval_sentence mdb f
        = Diagres_rc.Drc.eval_sentence mdb back
      | exception G.Eg_beta.Unsupported _ -> true)

let test_beta_scope_distinction () =
  let inside : G.Eg_beta.t =
    { G.Eg_beta.lines = []; preds = [];
      cuts =
        [ { G.Eg_beta.lines = [ 1 ];
            preds = [ { G.Eg_beta.name = "P"; args = [ G.Eg_beta.Lig 1 ] } ];
            cuts = [] } ] }
  in
  let outside = { inside with G.Eg_beta.lines = [ 1 ] } in
  Alcotest.(check bool) "both well formed" true
    (G.Eg_beta.well_formed inside && G.Eg_beta.well_formed outside);
  let fin = G.Eg_beta.to_drc inside and fout = G.Eg_beta.to_drc outside in
  (* ¬∃x P(x)  vs  ∃x ¬P(x): on a db where P is non-empty but not total,
     the readings differ *)
  let s = D.Schema.make [ ("x", D.Value.Tint) ] in
  let mdb =
    Diagres_data.Database.of_list
      [ ("P", D.Relation.of_lists s [ [ D.Value.Int 1 ] ]);
        ("Q", D.Relation.of_lists s [ [ D.Value.Int 2 ] ]) ]
  in
  Alcotest.(check bool) "¬∃x P(x) false here" false
    (Diagres_rc.Drc.eval_sentence mdb fin);
  Alcotest.(check bool) "∃x ¬P(x) true here" true
    (Diagres_rc.Drc.eval_sentence mdb fout);
  Alcotest.(check int) "crossing ligature detected" 1
    (List.length (G.Eg_beta.crossing_ligatures outside));
  Alcotest.(check int) "no crossing in pure-inside graph" 0
    (List.length (G.Eg_beta.crossing_ligatures inside))

let prop_beta_no_crossing_unambiguous =
  (* the precise content of the "imperfect mapping" claim: ambiguity can
     only come from ligatures that cross cuts — when none do, the
     outermost and innermost (hooks-only) readings coincide semantically *)
  QCheck.Test.make
    ~name:"beta: no crossing ligature ⇒ readings agree" ~count:80
    (QCheck.pair (Testutil.arbitrary_fol_sentence ~fuel:3 ()) QCheck.small_int)
    (fun (f, seed) ->
      match G.Eg_beta.of_drc f with
      | g ->
        G.Eg_beta.crossing_ligatures g <> []
        ||
        let mdb = Testutil.monadic_db seed in
        Diagres_rc.Drc.eval_sentence mdb (G.Eg_beta.to_drc g)
        = Diagres_rc.Drc.eval_sentence mdb (G.Eg_beta.to_drc_innermost g)
      | exception G.Eg_beta.Unsupported _ -> true)

let test_beta_disconnected_rejected () =
  (* ligature used in two sibling cuts without a connection through the
     sheet is ill-formed *)
  let bad : G.Eg_beta.t =
    { G.Eg_beta.lines = []; preds = [];
      cuts =
        [ { G.Eg_beta.lines = []; preds = [ { G.Eg_beta.name = "P"; args = [ G.Eg_beta.Lig 1 ] } ]; cuts = [] };
          { G.Eg_beta.lines = []; preds = [ { G.Eg_beta.name = "Q"; args = [ G.Eg_beta.Lig 1 ] } ]; cuts = [] } ] }
  in
  Alcotest.(check bool) "ill-formed" false (G.Eg_beta.well_formed bad)

let test_beta_innermost_vs_outermost () =
  let g : G.Eg_beta.t =
    { G.Eg_beta.lines = [ 1 ]; preds = [];
      cuts =
        [ { G.Eg_beta.lines = [ 1 ];
            preds = [ { G.Eg_beta.name = "P"; args = [ G.Eg_beta.Lig 1 ] } ];
            cuts = [] } ] }
  in
  let outer = G.Eg_beta.to_drc g in
  let inner = G.Eg_beta.to_drc_innermost g in
  Alcotest.(check bool) "readings differ syntactically" true (outer <> inner)

(* ---------------- String diagrams ---------------- *)

let test_string_diagram_roundtrip () =
  let q =
    Diagres_rc.Drc_parser.parse
      "{ s | exists n, r, a (Sailor(s, n, r, a) & r = 10) }"
  in
  let sd = G.String_diagram.of_drc_query q in
  Alcotest.(check int) "one open wire" 1 (G.String_diagram.open_wire_count sd);
  let back = G.String_diagram.to_drc_query sd in
  Testutil.check_same_rows "string diagram roundtrip"
    (Diagres_rc.Drc.eval db q)
    (Diagres_rc.Drc.eval db back)

let test_string_diagram_bound_wires () =
  let q =
    Diagres_rc.Drc_parser.parse
      "{ s | exists n, r, a (Sailor(s, n, r, a) & exists b, d (Reserves(s, b, d))) }"
  in
  let sd = G.String_diagram.of_drc_query q in
  Alcotest.(check int) "five bound wires" 5
    (G.String_diagram.bound_wire_count sd)

(* ---------------- QBE ---------------- *)

let qbe_q3 () =
  let p =
    Diagres_datalog.Parser.parse
      "missing(S) :- Sailor(S, N, R, A), Boat(B, BN, 'red'), not res2(S, \
       B).\nres2(S, B) :- Reserves(S, B, D2).\nq3(S) :- Sailor(S, N, R, A), \
       not missing(S)."
  in
  G.Qbe.of_datalog Testutil.schemas p ~goal:"q3"

let test_qbe_division_steps () =
  let steps, temps, rows = G.Qbe.stats (qbe_q3 ()) in
  Alcotest.(check int) "three steps" 3 steps;
  Alcotest.(check bool) "temp relations needed" true (temps >= 2);
  Alcotest.(check bool) "rows" true (rows >= 5)

let test_qbe_ascii_shape () =
  let text = G.Qbe.to_ascii (qbe_q3 ()) in
  Alcotest.(check bool) "has skeleton borders" true
    (String.length text > 0 && String.contains text '+');
  Alcotest.(check bool) "has example elements" true
    (let rec has i =
       i + 2 <= String.length text && (String.sub text i 2 = "_S" || has (i + 1))
     in
     has 0)

let test_qbe_needs_only_goal_rules () =
  let p =
    Diagres_datalog.Parser.parse
      "a(X) :- Sailor(X, N, R, Ag).\nb(X) :- Boat(X, N, C)."
  in
  let q = G.Qbe.of_datalog Testutil.schemas p ~goal:"a" in
  Alcotest.(check int) "only one step" 1 (List.length q)

(* ---------------- DFQL ---------------- *)

let test_dfql_structure () =
  let e = Diagres.Catalog.parsed_ra (Diagres.Catalog.find "q3") in
  let d = G.Dfql.of_ra e in
  Alcotest.(check int) "nodes = RA size" (Diagres_ra.Ast.size e)
    (G.Dfql.node_count d);
  Alcotest.(check int) "edges = nodes - 1 (tree)" (G.Dfql.node_count d - 1)
    (G.Dfql.edge_count d)

let test_dfql_ascii () =
  let d = G.Dfql.of_ra (Diagres_ra.Parser.parse "Sailor join Reserves") in
  let t = G.Dfql.to_ascii d in
  Alcotest.(check bool) "mentions both relations" true
    (let has sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length t && (String.sub t i n = sub || go (i + 1)) in
       go 0
     in
     has "Sailor" && has "Reserves")

let prop_dfql_layout_no_overlap =
  QCheck.Test.make ~name:"DFQL layout: no overlapping nodes" ~count:60
    (Testutil.arbitrary_ra ~fuel:4 ())
    (fun e ->
      let d = G.Dfql.of_ra e in
      let result = G.Dfql.layout d in
      let rects = List.map (fun p -> p.Diagres_render.Layout.rect) result.Diagres_render.Layout.nodes in
      let overlap (a : Diagres_render.Geom.rect) (b : Diagres_render.Geom.rect) =
        a.Diagres_render.Geom.rx < b.Diagres_render.Geom.rx +. b.Diagres_render.Geom.w
        && b.Diagres_render.Geom.rx < a.Diagres_render.Geom.rx +. a.Diagres_render.Geom.w
        && a.Diagres_render.Geom.ry < b.Diagres_render.Geom.ry +. b.Diagres_render.Geom.h
        && b.Diagres_render.Geom.ry < a.Diagres_render.Geom.ry +. a.Diagres_render.Geom.h
      in
      let rec pairwise = function
        | [] -> true
        | r :: rest -> List.for_all (fun r' -> not (overlap r r')) rest && pairwise rest
      in
      pairwise rects)

(* ---------------- Relational Diagrams & QueryVis ---------------- *)

let q3_trc () = Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q3")

let test_rd_structure () =
  let rd = G.Relational_diagram.of_trc (q3_trc ()) in
  Alcotest.(check int) "one panel" 1 (G.Relational_diagram.panel_count rd);
  let stats = List.hd (G.Relational_diagram.stats rd) in
  Alcotest.(check int) "two nested cuts" 2 stats.G.Scene.cuts;
  Alcotest.(check int) "no arrows" 0 stats.G.Scene.arrows

let test_rd_roundtrip_eval () =
  let rd = G.Relational_diagram.of_trc (q3_trc ()) in
  let back = List.hd (G.Relational_diagram.to_trc rd) in
  Testutil.check_same_rows "rd reading"
    (Testutil.sids D.Sample_db.q3_expected_sids)
    (Diagres_rc.Trc.eval db back)

let test_rd_panels_for_union () =
  let panels =
    Diagres_rc.Translate.drawable_panels schemas
      [ Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q4") ]
  in
  let rd = G.Relational_diagram.of_trc_queries panels in
  Alcotest.(check int) "two panels" 2 (G.Relational_diagram.panel_count rd)

let test_rd_svg_wellformed () =
  let rd = G.Relational_diagram.of_trc (q3_trc ()) in
  List.iter
    (fun svg ->
      Alcotest.(check bool) "svg open/close" true
        (String.length svg > 100
        && String.sub svg 0 4 = "<svg"
        && String.sub svg (String.length svg - 7) 6 = "</svg>"))
    (G.Relational_diagram.to_svg rd)

let test_queryvis_arrows () =
  let qv = G.Queryvis.of_trc (q3_trc ()) in
  Alcotest.(check bool) "reading arrows present" true
    (G.Queryvis.arrow_count qv > 0);
  let rd_stats = List.hd (G.Relational_diagram.stats (G.Relational_diagram.of_trc (q3_trc ()))) in
  Alcotest.(check int) "RD needs no arrows" 0 rd_stats.G.Scene.arrows

let test_scene_cut_depth () =
  let rd = G.Relational_diagram.of_trc (q3_trc ()) in
  let scene = (List.hd rd.G.Relational_diagram.panels).G.Relational_diagram.scene in
  (* the sailor box is at depth 0; boat box inside one cut; reserves inside
     two *)
  Alcotest.(check (option int)) "sailor depth" (Some 0)
    (G.Scene.cut_depth scene "var:s");
  Alcotest.(check (option int)) "boat depth" (Some 1)
    (G.Scene.cut_depth scene "var:b");
  Alcotest.(check (option int)) "reserves depth" (Some 2)
    (G.Scene.cut_depth scene "var:r")

(* ---------------- Conceptual graphs ---------------- *)

let test_conceptual_graph () =
  let q =
    Diagres_rc.Trc_parser.parse
      "{ s.sid | s in Sailor, r in Reserves : s.sid = r.sid and r.bid = 102 }"
  in
  let cg = G.Conceptual_graph.of_trc q in
  Alcotest.(check bool) "concepts >= 2" true (G.Conceptual_graph.concept_count cg >= 2);
  Alcotest.(check int) "two relation nodes" 2 (G.Conceptual_graph.relation_count cg);
  let lin = G.Conceptual_graph.to_linear cg in
  Alcotest.(check bool) "linear form mentions Sailor" true
    (let n = String.length lin in
     let rec go i = i + 6 <= n && (String.sub lin i 6 = "Sailor" || go (i + 1)) in
     go 0)

(* ---------------- Line abuse ---------------- *)

let test_line_abuse_contrast () =
  let sentence =
    Diagres_rc.Drc_parser.parse_formula
      "exists s, b, d (Reserves(s, b, d) & s <> b)"
  in
  let beta_report = G.Line_abuse.of_beta (G.Eg_beta.of_drc sentence) in
  Alcotest.(check bool) "beta abuses lines" true
    (beta_report.G.Line_abuse.abused_lines > 0);
  let rd =
    G.Relational_diagram.of_trc
      (Diagres_rc.Trc_parser.parse
         "{ r.sid | r in Reserves : r.sid <> r.bid }")
  in
  let scene = (List.hd rd.G.Relational_diagram.panels).G.Relational_diagram.scene in
  let rd_report = G.Line_abuse.of_scene scene in
  Alcotest.(check int) "RD lines carry one role" 0
    rd_report.G.Line_abuse.abused_lines

(* ---------------- Scene rendering ---------------- *)

let test_scene_ascii_nonempty () =
  let rd = G.Relational_diagram.of_trc (q3_trc ()) in
  let a = G.Relational_diagram.to_ascii rd in
  Alcotest.(check bool) "ascii has box corners" true (String.contains a '+')

let test_svg_escaping () =
  let scene =
    G.Scene.scene
      [ G.Scene.leaf ~id:"x" "a < b & c \"quoted\"" ]
  in
  let svg = G.Scene.to_svg scene in
  Alcotest.(check bool) "no raw < in text" true
    (let n = String.length svg in
     let rec go i =
       i + 4 > n || (String.sub svg i 4 <> "a < " && go (i + 1))
     in
     go 0)

(* ---------------- Constraint diagrams ---------------- *)

let cd_all_a_are_b () =
  (* contour semantics: shading A∖B ⇒ All A are B *)
  let d = G.Constraint_diagram.create [ "P"; "Q" ] in
  G.Constraint_diagram.add_shading d [ 1 (* P only *) ]

let test_constraint_shading_fol () =
  let d = cd_all_a_are_b () in
  let f = G.Constraint_diagram.to_fol d in
  (* on a db where P ⊆ Q the sentence holds *)
  let s = D.Schema.make [ ("x", D.Value.Tint) ] in
  let subdb =
    Diagres_data.Database.of_list
      [ ("P", D.Relation.of_lists s [ [ D.Value.Int 1 ] ]);
        ("Q", D.Relation.of_lists s [ [ D.Value.Int 1 ]; [ D.Value.Int 2 ] ]) ]
  in
  Alcotest.(check bool) "P⊆Q satisfies" true
    (Diagres_rc.Drc.eval_sentence subdb f);
  let baddb =
    Diagres_data.Database.of_list
      [ ("P", D.Relation.of_lists s [ [ D.Value.Int 3 ] ]);
        ("Q", D.Relation.of_lists s [ [ D.Value.Int 1 ] ]) ]
  in
  Alcotest.(check bool) "P⊄Q violates" false
    (Diagres_rc.Drc.eval_sentence baddb f)

let test_constraint_spiders () =
  let d = G.Constraint_diagram.create [ "P"; "Q" ] in
  let d = G.Constraint_diagram.add_spider d "s1" [ 3 (* P∩Q *) ] in
  let f = G.Constraint_diagram.to_fol d in
  let s = D.Schema.make [ ("x", D.Value.Tint) ] in
  let db1 =
    Diagres_data.Database.of_list
      [ ("P", D.Relation.of_lists s [ [ D.Value.Int 1 ] ]);
        ("Q", D.Relation.of_lists s [ [ D.Value.Int 1 ] ]) ]
  in
  Alcotest.(check bool) "∃ element in P∩Q" true
    (Diagres_rc.Drc.eval_sentence db1 f);
  let db2 =
    Diagres_data.Database.of_list
      [ ("P", D.Relation.of_lists s [ [ D.Value.Int 1 ] ]);
        ("Q", D.Relation.of_lists s [ [ D.Value.Int 2 ] ]) ]
  in
  Alcotest.(check bool) "empty P∩Q fails" false
    (Diagres_rc.Drc.eval_sentence db2 f)

let test_constraint_reading_ambiguity () =
  (* ∀x∈P ∃y∈Q R(x,y) vs ∃y∈Q ∀x∈P R(x,y): classic order dependence *)
  let d = G.Constraint_diagram.create [ "P"; "Q" ] in
  let d = G.Constraint_diagram.add_spider d ~kind:G.Constraint_diagram.Universal "u" [ 1 ] in
  let d = G.Constraint_diagram.add_spider d "e" [ 2 ] in
  let d = G.Constraint_diagram.add_arrow d ~relation:"R" ~src:"u" ~dst_contour:"Q" in
  ignore d;
  (* build a db where the two orders differ for the simpler diagram
     ∀u ∃e with a distinctness constraint *)
  let d2 = G.Constraint_diagram.create [ "P" ] in
  let d2 = G.Constraint_diagram.add_spider d2 ~kind:G.Constraint_diagram.Universal "u" [ 1 ] in
  let d2 = G.Constraint_diagram.add_spider d2 "e" [ 1 ] in
  let d2 = G.Constraint_diagram.add_distinct d2 "u" "e" in
  let s = D.Schema.make [ ("x", D.Value.Tint) ] in
  let db2 =
    Diagres_data.Database.of_list
      [ ("P", D.Relation.of_lists s [ [ D.Value.Int 1 ]; [ D.Value.Int 2 ] ]) ]
  in
  (* ∀u∃e. u≠e holds with |P|=2; ∃e∀u. u≠e fails *)
  Alcotest.(check bool) "reading order matters" true
    (G.Constraint_diagram.ambiguous db2 d2);
  let orders = G.Constraint_diagram.reading_orders d2 in
  Alcotest.(check int) "two orders" 2 (List.length orders);
  Alcotest.(check (list string)) "default reads ∃ first" [ "e"; "u" ]
    (G.Constraint_diagram.default_reading d2)

let test_constraint_errors () =
  let d = G.Constraint_diagram.create [ "P" ] in
  (match G.Constraint_diagram.add_spider d "s" [] with
  | exception G.Constraint_diagram.Constraint_error _ -> ()
  | _ -> Alcotest.fail "empty habitat must fail");
  match G.Constraint_diagram.add_arrow d ~relation:"R" ~src:"ghost" ~dst_contour:"P" with
  | exception G.Constraint_diagram.Constraint_error _ -> ()
  | _ -> Alcotest.fail "arrow from unknown spider must fail"

(* ---------------- Begriffsschrift ---------------- *)

let prop_begriffsschrift_roundtrip =
  QCheck.Test.make
    ~name:"Begriffsschrift: of_fol/to_fol preserves truth" ~count:80
    (QCheck.pair (Testutil.arbitrary_fol_sentence ~fuel:3 ()) QCheck.small_int)
    (fun (f, seed) ->
      let mdb = Testutil.monadic_db seed in
      match G.Begriffsschrift.of_fol f with
      | b ->
        Diagres_rc.Drc.eval_sentence mdb f
        = Diagres_rc.Drc.eval_sentence mdb (G.Begriffsschrift.to_fol b)
      | exception G.Begriffsschrift.Unsupported _ -> true)

let test_begriffsschrift_shape () =
  let f =
    Diagres_rc.Drc_parser.parse_formula "forall x (P(x) implies Q(x))"
  in
  let b = G.Begriffsschrift.of_fol f in
  let conds, negs, gens = G.Begriffsschrift.strokes b in
  Alcotest.(check int) "one condition stroke" 1 conds;
  Alcotest.(check int) "no negation strokes" 0 negs;
  Alcotest.(check int) "one concavity" 1 gens;
  let a = G.Begriffsschrift.to_ascii b in
  Alcotest.(check bool) "judgment stroke present" true
    (String.length a > 0 && a.[0] <> ' ')

let test_begriffsschrift_derived_connectives () =
  (* ∧ and ∃ cost extra strokes — Frege's economy trade-off *)
  let conj = Diagres_rc.Drc_parser.parse_formula "exists x (P(x) & Q(x))" in
  let b = G.Begriffsschrift.of_fol conj in
  let conds, negs, gens = G.Begriffsschrift.strokes b in
  Alcotest.(check bool) "derived shape uses ¬ and →" true
    (conds >= 1 && negs >= 3 && gens = 1)

(* ---------------- Higraphs ---------------- *)

let test_higraph_schema () =
  let h = G.Higraph.of_schemas Testutil.schemas in
  Alcotest.(check int) "three blobs" 3 (List.length (G.Higraph.blobs h));
  Alcotest.(check int) "depth 1" 1 (G.Higraph.depth h);
  (* joinable-attribute edges: sid (Sailor-Reserves), bid (Boat-Reserves) *)
  Alcotest.(check int) "two join edges" 2 (List.length h.G.Higraph.edges)

let test_higraph_states () =
  let b =
    G.Higraph.blob ~label:"root"
      ~children:
        [ G.Higraph.blob ~label:"a" ~orthogonal:[ "x"; "y" ] "a";
          G.Higraph.blob ~label:"b" "b" ]
      "root"
  in
  (* a contributes 2 (orthogonal), b contributes 1 *)
  Alcotest.(check int) "denoted states" 3 (G.Higraph.denoted_states b)

let test_higraph_errors () =
  match
    G.Higraph.create
      [ G.Higraph.blob ~label:"x" "dup"; G.Higraph.blob ~label:"y" "dup" ]
  with
  | exception G.Higraph.Higraph_error _ -> ()
  | _ -> Alcotest.fail "duplicate ids must fail"

(* ---------------- Query builder model ---------------- *)

let test_builder_accepts_conjunctive () =
  let q =
    Diagres_rc.Trc_parser.parse
      "{ s.sname | s in Sailor, r in Reserves : s.sid = r.sid and r.bid = \
       102 }"
  in
  (match G.Query_builder.of_trc q with
  | Ok b ->
    Alcotest.(check int) "two tables" 2 (List.length b.G.Query_builder.tables);
    Alcotest.(check int) "two conditions" 2
      (List.length b.G.Query_builder.conditions)
  | Error _ -> Alcotest.fail "conjunctive query must be expressible")

let test_builder_rejects_negation () =
  let q = Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q3") in
  Alcotest.(check bool) "division not expressible" false
    (G.Query_builder.expressible q);
  Alcotest.(check bool) "obstacle is negation" true
    (List.mem G.Query_builder.Negation (G.Query_builder.obstacles q))

let test_builder_rejects_structured_disjunction () =
  let q =
    Diagres_rc.Trc_parser.parse
      "{ s.sid | s in Sailor : s.rating = 10 or (exists r in Reserves \
       (r.sid = s.sid)) }"
  in
  Alcotest.(check bool) "structured or rejected" true
    (List.mem G.Query_builder.Deep_disjunction (G.Query_builder.obstacles q))

(* ---------------- DataPlay ---------------- *)

let dataplay_q3 () =
  (* anchor: Sailor s; ALL red boats have SOME reservation by s *)
  let module DP = G.Dataplay in
  let module T = Diagres_rc.Trc in
  DP.query ~anchor_var:"s" ~anchor_table:"Sailor"
    [ DP.node ~quantifier:DP.All
        ~predicates:[ (F.Eq, T.Field ("b", "color"), T.Const (D.Value.String "red")) ]
        ~children:
          [ DP.node ~quantifier:DP.Any
              ~predicates:
                [ (F.Eq, T.Field ("r", "sid"), T.Field ("s", "sid"));
                  (F.Eq, T.Field ("r", "bid"), T.Field ("b", "bid")) ]
              "r" "Reserves" ]
        "b" "Boat" ]

let test_dataplay_matches () =
  let matching, non = G.Dataplay.matches db (dataplay_q3 ()) in
  Testutil.check_same_rows "ALL matches q3"
    (Testutil.sids D.Sample_db.q3_expected_sids)
    matching;
  Alcotest.(check int) "non-matching complement" 8
    (D.Relation.cardinality non)

let test_dataplay_flip () =
  (* flipping the boat quantifier turns Q3 into Q1 — DataPlay's signature
     one-click correction *)
  let flipped = G.Dataplay.flip (dataplay_q3 ()) ~path:[ "b" ] in
  let matching, _ = G.Dataplay.matches db flipped in
  Testutil.check_same_rows "ANY matches q1"
    (Testutil.sids D.Sample_db.q1_expected_sids)
    matching

let test_dataplay_scene () =
  let scene = G.Dataplay.to_scene (dataplay_q3 ()) in
  let stats = G.Scene.stats scene in
  Alcotest.(check bool) "ALL scope drawn as negated-style box" true
    (stats.G.Scene.cuts >= 1)

(* ---------------- SQLVis (syntax sensitivity) ---------------- *)

let test_sqlvis_syntax_sensitivity () =
  (* semantically equal, syntactically different *)
  let exists_form =
    Diagres_sql.Parser.parse
      "SELECT s.sname FROM Sailor s WHERE EXISTS (SELECT r.sid FROM \
       Reserves r WHERE r.sid = s.sid)"
  in
  let in_form =
    Diagres_sql.Parser.parse
      "SELECT s.sname FROM Sailor s WHERE s.sid IN (SELECT r.sid FROM \
       Reserves r)"
  in
  Alcotest.(check bool) "same answers" true
    (D.Relation.same_rows
       (Diagres.Languages.eval_reference db
          (Diagres.Languages.Q_sql exists_form))
       (Diagres.Languages.eval_reference db (Diagres.Languages.Q_sql in_form)));
  Alcotest.(check bool) "different SQLVis pictures" true
    (G.Sqlvis.syntax_signature exists_form
    <> G.Sqlvis.syntax_signature in_form);
  (* but pattern-based Relational Diagrams agree (same pattern) *)
  let rd_pattern st =
    let panels = Diagres_sql.To_trc.statement schemas st in
    Diagres.Pattern.canonical_string `Shape (List.hd panels)
  in
  Alcotest.(check string) "same RD pattern" (rd_pattern exists_form)
    (rd_pattern in_form)

let test_sqlvis_scene () =
  let st = Diagres_sql.Parser.parse (Diagres.Catalog.find "q3").Diagres.Catalog.sql in
  let v = G.Sqlvis.of_sql st in
  let stats = G.Sqlvis.stats v in
  (* three SELECT blocks appear as three relation boxes *)
  Alcotest.(check bool) "blocks visible" true (stats.G.Scene.boxes >= 3);
  Alcotest.(check bool) "NOT boxes visible" true (stats.G.Scene.cuts >= 2)

(* ---------------- SIEUFERD ---------------- *)

let sieuferd_spec () =
  let module S = G.Sieuferd in
  let module T = Diagres_rc.Trc in
  S.scope ~attrs:[ "sid"; "sname" ]
    ~children:
      [ S.scope ~attrs:[ "bid"; "day" ]
          ~conditions:[ (F.Eq, T.Field ("r", "sid"), T.Field ("s", "sid")) ]
          "r" "Reserves" ]
    "s" "Sailor"

let test_sieuferd_header () =
  let h = G.Sieuferd.header (sieuferd_spec ()) in
  Alcotest.(check string) "title" "Sailor s" h.G.Sieuferd.title;
  Alcotest.(check int) "one nested scope" 1 (List.length h.G.Sieuferd.nested)

let test_sieuferd_nested_rows () =
  let rows = G.Sieuferd.eval db (sieuferd_spec ()) in
  Alcotest.(check int) "all sailors listed" 10 (List.length rows);
  (* sailor 22 has 4 reservations nested under it *)
  let s22 =
    List.find
      (fun r ->
        List.assoc "sid" r.G.Sieuferd.values = D.Value.Int 22)
      rows
  in
  Alcotest.(check int) "nested reservations" 4
    (List.length (List.assoc "r" s22.G.Sieuferd.subrows))

let test_sieuferd_header_encodes_query () =
  (* reading the header back along the nest path gives the join query *)
  let q = G.Sieuferd.to_trc (sieuferd_spec ()) ~path:[ "r" ] in
  let direct =
    Diagres_rc.Trc_parser.parse
      "{ s.sid, s.sname, r.bid, r.day | s in Sailor, r in Reserves : r.sid \
       = s.sid }"
  in
  Testutil.check_same_rows "header reading = join query"
    (Diagres_rc.Trc.eval db direct)
    (Diagres_rc.Trc.eval db q)

(* ---------------- TableTalk ---------------- *)

let test_tabletalk_flow () =
  let st =
    Diagres_sql.Parser.parse (Diagres.Catalog.find "q3").Diagres.Catalog.sql
  in
  let f = G.Tabletalk.of_sql st in
  Alcotest.(check int) "nested depth 3" 3 (G.Tabletalk.depth f);
  Alcotest.(check bool) "tiles counted" true (G.Tabletalk.tile_count f >= 7);
  let a = G.Tabletalk.to_ascii f in
  Alcotest.(check bool) "top-down flow text" true
    (let has sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length a && (String.sub a i n = sub || go (i + 1)) in
       go 0
     in
     has "[ FROM Sailor s ]" && has "NOT EXISTS")

let test_tabletalk_rejects_union () =
  let st = Diagres_sql.Parser.parse (Diagres.Catalog.find "q4").Diagres.Catalog.sql in
  match G.Tabletalk.of_sql st with
  | exception G.Tabletalk.Tabletalk_error _ -> ()
  | _ -> Alcotest.fail "union statements need multiple flows"

(* ---------------- Scene layout invariants ---------------- *)

let prop_scene_layout_containment =
  QCheck.Test.make ~name:"layout: children stay inside their boxes"
    ~count:50 (Testutil.arbitrary_ra ~fuel:3 ())
    (fun e ->
      let panels = Diagres_rc.Translate.ra_to_trc Testutil.env e in
      List.for_all
        (fun q ->
          let rd = G.Relational_diagram.of_trc q in
          let scene = (List.hd rd.G.Relational_diagram.panels).G.Relational_diagram.scene in
          let layout = G.Scene.layout scene in
          let rect_of id = List.assoc_opt id layout.G.Scene.rects in
          let module Geom = Diagres_render.Geom in
          let inside (outer : Geom.rect) (inner : Geom.rect) =
            inner.Geom.rx >= outer.Geom.rx -. 0.5
            && inner.Geom.ry >= outer.Geom.ry -. 0.5
            && Geom.right inner <= Geom.right outer +. 0.5
            && Geom.bottom inner <= Geom.bottom outer +. 0.5
          in
          let rec check (m : G.Scene.mark) =
            match m with
            | G.Scene.Leaf _ -> true
            | G.Scene.Box b -> (
              match rect_of b.G.Scene.id with
              | None -> false
              | Some outer ->
                List.for_all
                  (fun child ->
                    (match rect_of (G.Scene.mark_id child) with
                    | Some inner -> inside outer inner
                    | None -> false)
                    && check child)
                  b.G.Scene.children)
          in
          List.for_all check scene.G.Scene.marks)
        panels)

(* ---------------- Alpha proof search ---------------- *)

let test_proof_search_modus_ponens () =
  let premise =
    G.Eg_alpha.of_prop (P.And (P.Var "p", P.Implies (P.Var "p", P.Var "q")))
  in
  let goal = G.Eg_alpha.of_prop (P.Var "q") in
  match G.Eg_alpha_proof.prove ~premise ~goal () with
  | Some proof ->
    Alcotest.(check bool) "proof checks" true (G.Eg_alpha_proof.check proof);
    Alcotest.(check bool) "reaches goal" true
      (P.equivalent (G.Eg_alpha.to_prop (G.Eg_alpha_proof.conclusion proof))
         (P.Var "q"))
  | None -> Alcotest.fail "modus ponens must be derivable"

let test_proof_search_and_elim () =
  let premise = G.Eg_alpha.of_prop (P.And (P.Var "p", P.Var "q")) in
  let goal = G.Eg_alpha.of_prop (P.Var "p") in
  match G.Eg_alpha_proof.prove ~premise ~goal () with
  | Some proof ->
    Alcotest.(check bool) "proof checks" true (G.Eg_alpha_proof.check proof)
  | None -> Alcotest.fail "∧-elimination must be derivable"

let test_proof_search_double_negation () =
  let premise = G.Eg_alpha.of_prop (P.Not (P.Not (P.Var "p"))) in
  let goal = G.Eg_alpha.of_prop (P.Var "p") in
  match G.Eg_alpha_proof.prove ~premise ~goal () with
  | Some proof ->
    Alcotest.(check bool) "proof checks" true (G.Eg_alpha_proof.check proof)
  | None -> Alcotest.fail "double negation must be derivable"

let prop_proof_search_sound =
  QCheck.Test.make ~name:"found proofs are always sound" ~count:30
    (Testutil.arbitrary_prop ~fuel:2 ())
    (fun f ->
      let premise = G.Eg_alpha.of_prop (P.And (f, P.Var "zz")) in
      let goal = G.Eg_alpha.of_prop (P.Var "zz") in
      match G.Eg_alpha_proof.prove ~max_depth:3 ~premise ~goal () with
      | Some proof ->
        G.Eg_alpha_proof.check proof
        && P.entails (G.Eg_alpha.to_prop premise)
             (G.Eg_alpha.to_prop (G.Eg_alpha_proof.conclusion proof))
      | None -> true)

let () =
  Alcotest.run "diagrams"
    [
      ( "venn",
        [ Alcotest.test_case "statements" `Quick test_venn_statements;
          Alcotest.test_case "entailment" `Quick test_venn_entailment;
          Alcotest.test_case "inconsistency" `Quick test_venn_inconsistency;
          Testutil.qtest prop_venn_entails_sound_complete;
          Testutil.qtest prop_venn_fol_agree ] );
      ( "euler",
        [ Alcotest.test_case "embedding" `Quick test_euler_embedding;
          Alcotest.test_case "refusal" `Quick test_euler_refusal;
          Alcotest.test_case "entails" `Quick test_euler_entails ] );
      ( "venn-peirce",
        [ Alcotest.test_case "disjunction" `Quick test_venn_peirce_disjunction;
          Testutil.qtest prop_venn_peirce_entails_sound ] );
      ( "syllogisms",
        [ Alcotest.test_case "counts" `Quick test_syllogism_counts;
          Alcotest.test_case "named forms" `Quick test_syllogism_named_forms;
          Alcotest.test_case "venn = semantic" `Quick
            test_syllogism_venn_matches_semantic;
          Testutil.qtest prop_valid_syllogisms_hold_on_dbs ] );
      ( "alpha",
        [ Testutil.qtest prop_alpha_roundtrip;
          Alcotest.test_case "modus ponens" `Quick
            test_alpha_rules_modus_ponens;
          Alcotest.test_case "side conditions" `Quick
            test_alpha_rule_side_conditions;
          Testutil.qtest prop_alpha_insertion_sound;
          Testutil.qtest prop_alpha_double_cut_equiv;
          Testutil.qtest prop_alpha_erasure_weakens ] );
      ( "beta",
        [ Testutil.qtest prop_beta_roundtrip;
          Testutil.qtest prop_beta_no_crossing_unambiguous;
          Alcotest.test_case "scope distinction" `Quick
            test_beta_scope_distinction;
          Alcotest.test_case "disconnected rejected" `Quick
            test_beta_disconnected_rejected;
          Alcotest.test_case "innermost vs outermost" `Quick
            test_beta_innermost_vs_outermost ] );
      ( "string-diagrams",
        [ Alcotest.test_case "roundtrip" `Quick test_string_diagram_roundtrip;
          Alcotest.test_case "bound wires" `Quick
            test_string_diagram_bound_wires ] );
      ( "qbe",
        [ Alcotest.test_case "division steps" `Quick test_qbe_division_steps;
          Alcotest.test_case "ascii shape" `Quick test_qbe_ascii_shape;
          Alcotest.test_case "goal slicing" `Quick
            test_qbe_needs_only_goal_rules ] );
      ( "dfql",
        [ Alcotest.test_case "structure" `Quick test_dfql_structure;
          Alcotest.test_case "ascii" `Quick test_dfql_ascii;
          Testutil.qtest prop_dfql_layout_no_overlap ] );
      ( "relational-diagrams",
        [ Alcotest.test_case "structure" `Quick test_rd_structure;
          Alcotest.test_case "reading eval" `Quick test_rd_roundtrip_eval;
          Alcotest.test_case "union panels" `Quick test_rd_panels_for_union;
          Alcotest.test_case "svg wellformed" `Quick test_rd_svg_wellformed;
          Alcotest.test_case "queryvis arrows" `Quick test_queryvis_arrows;
          Alcotest.test_case "cut depth" `Quick test_scene_cut_depth ] );
      ( "conceptual-graphs",
        [ Alcotest.test_case "build" `Quick test_conceptual_graph ] );
      ( "line-abuse",
        [ Alcotest.test_case "beta vs RD" `Quick test_line_abuse_contrast ] );
      ( "scene",
        [ Alcotest.test_case "ascii" `Quick test_scene_ascii_nonempty;
          Alcotest.test_case "svg escaping" `Quick test_svg_escaping ] );
      ( "constraint-diagrams",
        [ Alcotest.test_case "shading = All-are" `Quick
            test_constraint_shading_fol;
          Alcotest.test_case "spiders = existence" `Quick
            test_constraint_spiders;
          Alcotest.test_case "reading ambiguity" `Quick
            test_constraint_reading_ambiguity;
          Alcotest.test_case "errors" `Quick test_constraint_errors ] );
      ( "begriffsschrift",
        [ Testutil.qtest prop_begriffsschrift_roundtrip;
          Alcotest.test_case "ladder shape" `Quick test_begriffsschrift_shape;
          Alcotest.test_case "derived connectives" `Quick
            test_begriffsschrift_derived_connectives ] );
      ( "higraphs",
        [ Alcotest.test_case "schema higraph" `Quick test_higraph_schema;
          Alcotest.test_case "denoted states" `Quick test_higraph_states;
          Alcotest.test_case "errors" `Quick test_higraph_errors ] );
      ( "query-builder",
        [ Alcotest.test_case "conjunctive ok" `Quick
            test_builder_accepts_conjunctive;
          Alcotest.test_case "rejects negation" `Quick
            test_builder_rejects_negation;
          Alcotest.test_case "rejects deep or" `Quick
            test_builder_rejects_structured_disjunction ] );
      ( "sieuferd",
        [ Alcotest.test_case "header" `Quick test_sieuferd_header;
          Alcotest.test_case "nested rows" `Quick test_sieuferd_nested_rows;
          Alcotest.test_case "header encodes query" `Quick
            test_sieuferd_header_encodes_query ] );
      ( "tabletalk",
        [ Alcotest.test_case "flow" `Quick test_tabletalk_flow;
          Alcotest.test_case "rejects union" `Quick
            test_tabletalk_rejects_union ] );
      ( "layout",
        [ Testutil.qtest prop_scene_layout_containment ] );
      ( "dataplay",
        [ Alcotest.test_case "matching pane" `Quick test_dataplay_matches;
          Alcotest.test_case "flip ∀↔∃" `Quick test_dataplay_flip;
          Alcotest.test_case "scene" `Quick test_dataplay_scene ] );
      ( "sqlvis",
        [ Alcotest.test_case "syntax sensitivity" `Quick
            test_sqlvis_syntax_sensitivity;
          Alcotest.test_case "scene" `Quick test_sqlvis_scene ] );
      ( "alpha-proof-search",
        [ Alcotest.test_case "modus ponens" `Quick
            test_proof_search_modus_ponens;
          Alcotest.test_case "and elimination" `Quick
            test_proof_search_and_elim;
          Alcotest.test_case "double negation" `Quick
            test_proof_search_double_negation;
          Testutil.qtest prop_proof_search_sound ] );
    ]
