(* The tutorial's Part-3/Part-5 backbone, end to end: the five catalog
   queries, each in five textual languages and several diagrammatic
   formalisms, with cross-language agreement checked as we go.

   Run with:  dune exec examples/sailors_tour.exe *)

let db = Diagres_data.Sample_db.db

let schemas =
  List.map
    (fun (n, r) -> (n, Diagres_data.Relation.schema r))
    (Diagres_data.Database.relations db)

let show_rows rel =
  let rows =
    List.map
      (fun t ->
        "("
        ^ String.concat ", "
            (List.map Diagres_data.Value.to_string (Diagres_data.Tuple.to_list t))
        ^ ")")
      (Diagres_data.Relation.tuples rel)
  in
  String.concat " " rows

let () =
  List.iter
    (fun e ->
      Printf.printf "================ %s: %s ================\n"
        e.Diagres.Catalog.id e.Diagres.Catalog.description;
      Printf.printf "SQL:     %s\n" e.Diagres.Catalog.sql;
      Printf.printf "RA:      %s\n" e.Diagres.Catalog.ra;
      Printf.printf "TRC:     %s\n" e.Diagres.Catalog.trc;
      Printf.printf "DRC:     %s\n" e.Diagres.Catalog.drc;
      Printf.printf "Datalog:\n%s\n" e.Diagres.Catalog.datalog;
      (* each language answered the way qviz answers it *)
      let results =
        List.map
          (fun (lang, src) ->
            (Diagres.Languages.eval db (Diagres.Languages.parse lang src))
              .Diagres.Languages.result)
          (Diagres.Catalog.sources e)
      in
      let first = List.hd results in
      let agree = List.for_all (Diagres_data.Relation.same_rows first) results in
      Printf.printf "answers (%s): %s\n"
        (if agree then "all 5 languages agree" else "LANGUAGES DISAGREE!")
        (show_rows first);
      (* draw the Relational Diagram panels (disjunctions split out) *)
      let trc = Diagres.Catalog.parsed_trc e in
      let panels =
        Diagres_diagrams.Relational_diagram.of_trc_queries
          (Diagres_rc.Translate.drawable_panels schemas [ trc ])
      in
      Printf.printf "-- Relational Diagram (%d panel%s) --\n"
        (Diagres_diagrams.Relational_diagram.panel_count panels)
        (if Diagres_diagrams.Relational_diagram.panel_count panels = 1 then ""
         else "s");
      print_string (Diagres_diagrams.Relational_diagram.to_ascii panels);
      (* QBE via the Datalog program: the tutorial's division discussion *)
      if e.Diagres.Catalog.id = "q3" then begin
        print_endline "-- QBE (division needs steps + a temporary relation) --";
        let p = Diagres.Catalog.parsed_datalog e in
        let qbe = Diagres_diagrams.Qbe.of_datalog schemas p ~goal:"q3" in
        print_string (Diagres_diagrams.Qbe.to_ascii qbe);
        let steps, temps, rows = Diagres_diagrams.Qbe.stats qbe in
        Printf.printf "QBE steps=%d temp relations=%d skeleton rows=%d\n" steps
          temps rows;
        let _, occs, repeats = Diagres_datalog.Ast.stats p in
        Printf.printf
          "Datalog body atoms=%d repeated-table occurrences=%d — \"is QBE \
           really more visual?\"\n"
          occs repeats
      end;
      (* DFQL dataflow for the RA expression *)
      print_endline "-- DFQL dataflow (RA operator tree) --";
      print_string
        (Diagres_diagrams.Dfql.to_ascii
           (Diagres_diagrams.Dfql.of_ra (Diagres.Catalog.parsed_ra e)));
      print_newline ())
    Diagres.Catalog.all
