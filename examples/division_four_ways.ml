(* Relational division — the tutorial's favourite discriminator — written
   four ways, each drawn with the formalism that fits it best:

     RA    ÷ operator              → DFQL dataflow tree
     SQL   double NOT EXISTS       → QueryVis groups + arrows
     TRC   ∀ with implication      → Relational Diagram nested boxes
     Datalog double negation       → QBE skeletons with a temp relation

   All four return the same sailors, and the diagrams expose how each
   language "thinks" about universal quantification.

   Run with:  dune exec examples/division_four_ways.exe *)

let db = Diagres_data.Sample_db.db

let schemas =
  List.map
    (fun (n, r) -> (n, Diagres_data.Relation.schema r))
    (Diagres_data.Database.relations db)

let show name rel =
  Printf.printf "%s answers: {%s}\n" name
    (String.concat ", "
       (List.map
          (fun t -> Diagres_data.Value.to_string (Diagres_data.Tuple.get t 0))
          (Diagres_data.Relation.tuples rel)))

(* answered the way qviz answers: lowered to RA, planned, run *)
let answer q = (Diagres.Languages.eval db q).Diagres.Languages.result

let () =
  print_endline "Q: which sailors reserved ALL red boats?\n";

  (* 1. RA with the division operator *)
  print_endline "== 1. RA: the ÷ operator (drawn as DFQL dataflow) ==";
  let ra =
    Diagres_ra.Parser.parse
      "project[sid,bid](Reserves) div project[bid](select[color='red'](Boat))"
  in
  print_endline ("    " ^ Diagres_ra.Pretty.unicode ra);
  show "RA" (answer (Diagres.Languages.Q_ra ra));
  print_string (Diagres_diagrams.Dfql.to_ascii (Diagres_diagrams.Dfql.of_ra ra));
  print_endline
    "    (note: ÷ answers differ from ∀ when there are no red boats at all\n\
    \     — the empty-divisor subtlety; on this instance they coincide)\n";

  (* 2. SQL with double NOT EXISTS *)
  print_endline "== 2. SQL: double NOT EXISTS (drawn as QueryVis) ==";
  let sql = (Diagres.Catalog.find "q3").Diagres.Catalog.sql in
  print_endline sql;
  let stmt = Diagres_sql.Parser.parse sql in
  show "SQL" (answer (Diagres.Languages.Q_sql stmt));
  let qv = List.hd (Diagres_diagrams.Queryvis.of_sql schemas stmt) in
  Printf.printf "QueryVis needs %d reading arrows:\n"
    (Diagres_diagrams.Queryvis.arrow_count qv);
  print_string (Diagres_diagrams.Queryvis.to_ascii qv);

  (* 3. TRC with a universal quantifier *)
  print_endline "\n== 3. TRC: ∀ + ⇒ (drawn as a Relational Diagram) ==";
  let trc_src = (Diagres.Catalog.find "q3").Diagres.Catalog.trc in
  print_endline trc_src;
  let trc = Diagres_rc.Trc_parser.parse trc_src in
  show "TRC" (answer (Diagres.Languages.Q_trc trc));
  let rd = Diagres_diagrams.Relational_diagram.of_trc trc in
  print_endline "Relational Diagram needs 0 arrows (nesting carries scope):";
  print_string (Diagres_diagrams.Relational_diagram.to_ascii rd);

  (* 4. Datalog with double negation *)
  print_endline "\n== 4. Datalog: double negation (drawn as QBE steps) ==";
  let dl_src = (Diagres.Catalog.find "q3").Diagres.Catalog.datalog in
  print_endline dl_src;
  let p = Diagres_datalog.Parser.parse dl_src in
  show "Datalog" (answer (Diagres.Languages.Q_datalog (p, "q3")));
  let qbe = Diagres_diagrams.Qbe.of_datalog schemas p ~goal:"q3" in
  let steps, temps, _ = Diagres_diagrams.Qbe.stats qbe in
  Printf.printf "QBE needs %d steps and %d temporary relations:\n" steps temps;
  print_string (Diagres_diagrams.Qbe.to_ascii qbe);

  (* and back to SQL from the diagram's reading *)
  print_endline "\n== the loop closes: diagram reading → SQL ==";
  let panels = [ List.hd (Diagres_diagrams.Relational_diagram.to_trc rd) ] in
  print_endline (Diagres_sql.Of_trc.to_string panels);
  let back = Diagres_sql.Parser.parse (Diagres_sql.Of_trc.to_string panels) in
  show "diagram→SQL" (answer (Diagres.Languages.Q_sql back))
