(** Independent reference answers, and the digest both sides compare.

    Each language is checked against an evaluator that does not share the
    request route's lowering or planner: the naive RA tree-walker, native
    TRC and DRC evaluation, the Datalog evaluator, and SQL read as TRC. *)

module D = Diagres_data
module R = D.Relation
module L = Diagres.Languages
module Ra = Diagres_ra

(** An order-independent fingerprint of a relation's rows that agrees with
    {!Diagres_data.Relation.same_rows}: rows are taken in canonical order,
    attribute names are ignored, and numbers compare by value (so [Int 2]
    and [Float 2.] print alike).  A columnar answer is read straight from
    its canonical batch, without boxing its rows. *)
let digest (r : R.t) : string =
  let b = Buffer.create 4096 in
  let value (v : D.Value.t) =
    (match v with
    | D.Value.Null -> Buffer.add_char b 'N'
    | D.Value.Bool x -> Buffer.add_char b (if x then 'T' else 'F')
    | D.Value.Int i ->
      Buffer.add_char b '#';
      Buffer.add_string b (string_of_int i)
    | D.Value.Float f ->
      Buffer.add_char b '#';
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (string_of_int (int_of_float f))
      else Buffer.add_string b (Printf.sprintf "%h" f)
    | D.Value.String s ->
      Buffer.add_char b 'S';
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s);
    Buffer.add_char b ','
  in
  (match R.peek_batch r with
  | Some batch ->
    let cols = D.Batch.cols batch in
    for i = 0 to D.Batch.nrows batch - 1 do
      Array.iter (fun c -> value (D.Column.get c i)) cols;
      Buffer.add_char b '\n'
    done
  | None ->
    Array.iter
      (fun (t : D.Tuple.t) ->
        Array.iter value t;
        Buffer.add_char b '\n')
      (R.tuples_array r));
  Printf.sprintf "%s/%d" (Digest.to_hex (Digest.string (Buffer.contents b)))
    (R.cardinality r)

(* Upper bound on the rows a product node materializes, from the base
   relations beneath each side. *)
let rec rows_bound db (e : Ra.Ast.t) : float =
  match e with
  | Ra.Ast.Rel r -> (
    match D.Database.find_opt r db with
    | Some rel -> float_of_int (R.cardinality rel)
    | None -> 0.)
  | Ra.Ast.Empty _ -> 0.
  | Ra.Ast.Select (_, c) | Ra.Ast.Project (_, c) | Ra.Ast.Rename (_, c) ->
    rows_bound db c
  | Ra.Ast.Product (a, b) | Ra.Ast.Join (a, b) | Ra.Ast.Theta_join (_, a, b) ->
    rows_bound db a *. rows_bound db b
  | Ra.Ast.Union (a, b) -> rows_bound db a +. rows_bound db b
  | Ra.Ast.Inter (a, _) | Ra.Ast.Diff (a, _) | Ra.Ast.Division (a, _) ->
    rows_bound db a

let rec has_big_product db (e : Ra.Ast.t) =
  match e with
  | Ra.Ast.Rel _ | Ra.Ast.Empty _ -> false
  | Ra.Ast.Select (_, c) | Ra.Ast.Project (_, c) | Ra.Ast.Rename (_, c) ->
    has_big_product db c
  | Ra.Ast.Product (a, b) ->
    rows_bound db e > 1e7 || has_big_product db a || has_big_product db b
  | Ra.Ast.Join (a, b)
  | Ra.Ast.Theta_join (_, a, b)
  | Ra.Ast.Union (a, b)
  | Ra.Ast.Inter (a, b)
  | Ra.Ast.Diff (a, b)
  | Ra.Ast.Division (a, b) ->
    has_big_product db a || has_big_product db b

(** The naive RA answer; a selection over a product too large to
    materialize is evaluated on the logically optimized expression
    instead (the rewrites turn it into a join). *)
let eval_ra db e =
  let e = if has_big_product db e then Ra.Optimize.optimize_db db e else e in
  Ra.Eval.eval db e

let schemas_of db =
  List.map (fun (n, r) -> (n, R.schema r)) (D.Database.relations db)

(** The reference answer for source text [text] in [lang] on [db]. *)
let answer db lang text : R.t =
  match L.parse lang text with
  | L.Q_ra e -> eval_ra db e
  | L.Q_trc q -> Diagres_rc.Trc.eval db q
  | L.Q_drc q -> Diagres_rc.Drc.eval db q
  | L.Q_datalog (p, goal) -> Diagres_datalog.Eval.query db p ~goal
  | L.Q_sql st -> (
    match Diagres_sql.To_trc.statement (schemas_of db) st with
    | [] -> invalid_arg "SQL statement without TRC panels"
    | p :: ps ->
      List.fold_left
        (fun acc q -> R.union acc (Diagres_rc.Trc.eval db q))
        (Diagres_rc.Trc.eval db p) ps)

let of_query db (q : Workload.query) =
  match q.oracle_text with
  | Some text -> eval_ra db (Ra.Parser.parse text)
  | None -> answer db q.lang q.text
