(* A second vocabulary: the drinkers–bars–beers database, with the classic
   "only bars that serve a beer they like" ∀∃ query drawn across
   formalisms — nothing in the toolkit is sailors-specific.

   Run with:  dune exec examples/drinkers.exe *)

let db = Diagres_data.Drinkers_db.db

let schemas = Diagres_data.Drinkers_db.schemas

let show name rel =
  Printf.printf "%-4s {%s}\n" name
    (String.concat ", "
       (List.map
          (fun t -> Diagres_data.Value.to_string (Diagres_data.Tuple.get t 0))
          (Diagres_data.Relation.tuples rel)))

(* answered the way qviz answers: lowered to RA, planned, run *)
let answer q = (Diagres.Languages.eval db q).Diagres.Languages.result

let () =
  print_endline "== D1: drinkers who frequent a bar serving a beer they like ==";
  let d1 =
    Diagres_rc.Trc_parser.parse
      "{ f.drinker | f in Frequents : exists s in Serves, l in Likes \
       (s.bar = f.bar and l.drinker = f.drinker and l.beer = s.beer) }"
  in
  show "D1" (answer (Diagres.Languages.Q_trc d1));

  print_endline "\n== D2: … who frequent ONLY such bars (∀∃ pattern) ==";
  let d2 =
    Diagres_rc.Trc_parser.parse
      "{ l0.drinker | l0 in Likes : forall f in Frequents (f.drinker = \
       l0.drinker implies exists s in Serves, l in Likes (s.bar = f.bar and \
       l.drinker = f.drinker and l.beer = s.beer)) and exists f0 in \
       Frequents (f0.drinker = l0.drinker) }"
  in
  show "D2" (answer (Diagres.Languages.Q_trc d2));

  print_endline "\nRelational Diagram for D2 (two nested negation boxes):";
  let rd = Diagres_diagrams.Relational_diagram.of_trc d2 in
  print_string (Diagres_diagrams.Relational_diagram.to_ascii rd);

  print_endline "\nSQL back-translation of the diagram's reading:";
  print_endline
    (Diagres_sql.Of_trc.to_string
       (Diagres_diagrams.Relational_diagram.to_trc rd));

  (* cross-language check on the second schema *)
  let sql =
    "SELECT DISTINCT l0.drinker FROM Likes l0 WHERE NOT EXISTS (SELECT \
     f.bar FROM Frequents f WHERE f.drinker = l0.drinker AND NOT EXISTS \
     (SELECT s.bar FROM Serves s, Likes l WHERE s.bar = f.bar AND \
     l.drinker = f.drinker AND l.beer = s.beer)) AND EXISTS (SELECT f0.bar \
     FROM Frequents f0 WHERE f0.drinker = l0.drinker)"
  in
  let via_sql =
    answer (Diagres.Languages.parse Diagres.Languages.Sql sql)
  in
  show "\nD2 via SQL" via_sql;
  Printf.printf "TRC and SQL agree: %b\n"
    (Diagres_data.Relation.same_rows
       (answer (Diagres.Languages.Q_trc d2))
       via_sql);

  print_endline "\n== D3: drinkers who like a beer served nowhere ==";
  let d3 =
    Diagres_rc.Trc_parser.parse
      "{ l.drinker | l in Likes : not (exists s in Serves (s.beer = \
       l.beer)) }"
  in
  show "D3" (answer (Diagres.Languages.Q_trc d3));
  ignore schemas
