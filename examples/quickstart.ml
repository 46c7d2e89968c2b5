(* Quickstart: parse a SQL query, translate it, draw it, verify the loop.

   Run with:  dune exec examples/quickstart.exe *)

let db = Diagres_data.Sample_db.db

let schemas =
  List.map
    (fun (n, r) -> (n, Diagres_data.Relation.schema r))
    (Diagres_data.Database.relations db)

let () =
  print_endline "=== 1. A SQL query over the sailors database ===";
  let sql =
    "SELECT DISTINCT s.sname FROM Sailor s, Reserves r, Boat b WHERE s.sid \
     = r.sid AND r.bid = b.bid AND b.color = 'red'"
  in
  print_endline sql;

  print_endline "\n=== 2. Evaluate it ===";
  let answer =
    Diagres.Languages.eval db
      (Diagres.Languages.parse Diagres.Languages.Sql sql)
  in
  print_string (Diagres_data.Relation.to_string answer.Diagres.Languages.result);

  print_endline "\n=== 3. Translate: SQL -> TRC -> RA ===";
  let stmt = Diagres_sql.Parser.parse sql in
  let trc = Diagres_sql.To_trc.statement_single schemas stmt in
  print_endline ("TRC: " ^ Diagres_rc.Trc.to_string trc);
  let ra = Diagres_rc.Translate.trc_to_ra schemas trc in
  let ra = Diagres_ra.Optimize.optimize_db db ra in
  print_endline ("RA:  " ^ Diagres_ra.Pretty.unicode ra);

  print_endline "\n=== 4. Draw it as a Relational Diagram ===";
  let rd = Diagres_diagrams.Relational_diagram.of_trc trc in
  print_string (Diagres_diagrams.Relational_diagram.to_ascii rd);
  List.iteri
    (fun i svg ->
      let path = Printf.sprintf "quickstart-rd-%d.svg" (i + 1) in
      let oc = open_out path in
      output_string oc svg;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length svg))
    (Diagres_diagrams.Relational_diagram.to_svg rd);

  print_endline "\n=== 5. Verify: diagram reading = original query ===";
  let q = Diagres.Languages.Q_sql stmt in
  Printf.printf "round trip verified: %b\n" (Diagres.Pipeline.verify_roundtrip db q)
