(* The Fig. 1 / Fig. 2 scenario of the paper, minus the microphone: a
   "dictated" query arrives as text, the system parses it, draws back what
   it understood, and proves to itself that the diagram means the same
   thing as the query it will execute.

   The paper's premise is that users must be able to verify a
   machine-generated query.  Here the whole loop is mechanical:

     dictation (SQL text) → parse → TRC panels → Relational Diagram
                                   ↘ evaluate  =  evaluate panel union ↙

   Run with:  dune exec examples/voice_assistant.exe *)

let db = Diagres_data.Sample_db.db

(* The "assistant" mishears one query — note q_heard_wrong drops the NOT.
   The diagram makes the difference visible, and the verification loop
   still holds for what was actually parsed (the diagram never lies about
   the query; it can only reveal that the query is not what you meant). *)
let dictations =
  [ ( "sailors who reserved a red boat",
      "SELECT DISTINCT s.sname FROM Sailor s, Reserves r, Boat b WHERE s.sid \
       = r.sid AND r.bid = b.bid AND b.color = 'red'" );
    ( "sailors who reserved ALL red boats",
      "SELECT DISTINCT s.sname FROM Sailor s WHERE NOT EXISTS (SELECT b.bid \
       FROM Boat b WHERE b.color = 'red' AND NOT EXISTS (SELECT r.sid FROM \
       Reserves r WHERE r.sid = s.sid AND r.bid = b.bid))" );
    ( "sailors who reserved NO boat at all (misheard: dropped the NOT)",
      "SELECT DISTINCT s.sname FROM Sailor s WHERE EXISTS (SELECT r.sid \
       FROM Reserves r WHERE r.sid = s.sid)" ) ]

let () =
  List.iteri
    (fun i (intent, sql) ->
      Printf.printf "=============== dictation %d ===============\n" (i + 1);
      Printf.printf "user intent:  %S\n" intent;
      Printf.printf "system heard: %s\n\n" sql;
      let q, rendering, verified = Diagres.Pipeline.run db "sql" sql "rd" in
      print_endline "the system draws what it understood:";
      List.iter print_string rendering.Diagres.Pipeline.panels_ascii;
      Printf.printf "\ndiagram ≡ query (verified on the database): %b\n"
        verified;
      print_endline "answers under that reading:";
      print_string
        (Diagres_data.Relation.to_string
           (Diagres.Languages.eval db q).Diagres.Languages.result);
      print_newline ())
    dictations;
  print_endline
    "Dictation 3 shows the point of query visualization: the diagram is \
     faithful to the parsed query, so the *missing* negation box is visible \
     at a glance — the user catches the misheard query before trusting its \
     answers."
