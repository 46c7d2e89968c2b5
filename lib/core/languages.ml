(** Uniform dispatch over the five textual query languages (Part 3). *)

type lang = Sql | Ra | Trc | Drc | Datalog

let all = [ Sql; Ra; Trc; Drc; Datalog ]

let name = function
  | Sql -> "SQL"
  | Ra -> "RA"
  | Trc -> "TRC"
  | Drc -> "DRC"
  | Datalog -> "Datalog"

module Diag = Diagres_diag.Diag
module T = Diagres_telemetry.Telemetry

let of_name s =
  match String.lowercase_ascii s with
  | "sql" -> Sql
  | "ra" | "algebra" -> Ra
  | "trc" -> Trc
  | "drc" -> Drc
  | "datalog" -> Datalog
  | _ ->
    Diag.error ~code:"E-CLI-LANG-001" ~phase:Diag.Resolve ~needle:s
      ~hints:
        (Diag.did_you_mean
           ~candidates:[ "sql"; "ra"; "trc"; "drc"; "datalog" ]
           s)
      "unknown language %S (expected sql, ra, trc, drc, or datalog)" s

(** A parsed query in any of the five languages. *)
type query =
  | Q_sql of Diagres_sql.Ast.statement
  | Q_ra of Diagres_ra.Ast.t
  | Q_trc of Diagres_rc.Trc.query
  | Q_drc of Diagres_rc.Drc.query
  | Q_datalog of Diagres_datalog.Ast.program * string  (** program, goal *)

(** Parse errors raise {!Diagres_diag.Diag.Error} ([E-<LANG>-PARSE-001])
    carrying the source text and the failing offset, so the CLI can render
    a caret excerpt. *)
let parse_error_code lang =
  Printf.sprintf "E-%s-PARSE-001" (String.uppercase_ascii (name lang))

let parse lang src : query =
  let fail msg off =
    let stop =
      (* extend the caret over the offending word, if any *)
      let n = String.length src in
      let is_word c =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9') || c = '_'
      in
      let rec go i = if i < n && is_word src.[i] then go (i + 1) else i in
      max (min (off + 1) n) (go (max 0 (min off n)))
    in
    Diag.error ~code:(parse_error_code lang) ~phase:Diag.Parse ~source:src
      ~span:{ Diag.start = max 0 (min off (String.length src)); stop }
      "%s syntax error: %s" (name lang) msg
  in
  let wrap f =
    T.with_span ~cat:"phase"
      ~attrs:(fun () -> [ ("lang", T.Str (name lang)) ])
      "parse"
    @@ fun () ->
    try f () with
    | Diagres_parsekit.Stream.Parse_error (msg, off)
    | Diagres_parsekit.Lexer.Lex_error (msg, off) ->
      fail msg off
  in
  match lang with
  | Sql -> wrap (fun () -> Q_sql (Diagres_sql.Parser.parse src))
  | Ra -> wrap (fun () -> Q_ra (Diagres_ra.Parser.parse src))
  | Trc -> wrap (fun () -> Q_trc (Diagres_rc.Trc_parser.parse src))
  | Drc -> wrap (fun () -> Q_drc (Diagres_rc.Drc_parser.parse src))
  | Datalog ->
    wrap (fun () ->
        let p = Diagres_datalog.Parser.parse src in
        let goal =
          (* convention: the goal is the head of the last rule *)
          match List.rev p with
          | r :: _ -> r.Diagres_datalog.Ast.head.Diagres_datalog.Ast.pred
          | [] -> fail "empty program (expected at least one rule)" 0
        in
        Q_datalog (p, goal))

let lang_of = function
  | Q_sql _ -> Sql
  | Q_ra _ -> Ra
  | Q_trc _ -> Trc
  | Q_drc _ -> Drc
  | Q_datalog _ -> Datalog

(** Normalize any language to single-panel TRC queries — the diagram
    generators' input.  Disjunctions hiding inside a panel body are split
    out (via {!Diagres_rc.Translate.drawable_panels}). *)
let to_trc_panels schemas (q : query) : Diagres_rc.Trc.query list =
  T.with_span ~cat:"phase" "translate" @@ fun () ->
  let raw =
    match q with
    | Q_sql st -> Diagres_sql.To_trc.statement schemas st
    | Q_ra e -> Diagres_rc.Translate.ra_to_trc schemas e
    | Q_trc q -> [ q ]
    | Q_drc q -> Diagres_rc.Translate.drc_to_trc schemas q
    | Q_datalog (p, goal) ->
      Diagres_rc.Translate.drc_to_trc schemas
        (Diagres_datalog.To_drc.query schemas p ~goal)
  in
  Diagres_rc.Translate.drawable_panels schemas raw

(** Normalize to a single RA expression. *)
let to_ra schemas (q : query) : Diagres_ra.Ast.t =
  T.with_span ~cat:"phase" "translate" @@ fun () ->
  match q with
  | Q_sql st -> Diagres_sql.To_ra.statement schemas st
  | Q_ra e -> e
  | Q_trc q -> Diagres_rc.Translate.trc_to_ra schemas q
  | Q_drc q -> Diagres_rc.Translate.drc_to_ra schemas q
  | Q_datalog (p, goal) -> Diagres_datalog.To_drc.to_ra schemas p ~goal

let schemas_of = Diagres_ra.Typecheck.env_of_database

(** The served form of [q]: its RA expression and, unless its rows answer
    as they are (RA), each answer column named as {!eval_reference} names
    it — the TRC head rule ({!Diagres_rc.Trc.head_schema}) for TRC and
    SQL, the head variables for DRC, [x1], [x2], … for Datalog — and read
    from a column of those rows or a literal ({!Diagres_rc.Drc_to_ra.lower}). *)
let lower schemas (q : query) :
    Diagres_ra.Ast.t * (string * Diagres_rc.Drc_to_ra.column) list option =
  T.with_span ~cat:"phase" "translate" @@ fun () ->
  let module L = Diagres_rc.Drc_to_ra in
  let module S = Diagres_sql.Ast in
  let trc_names t =
    Diagres_data.Schema.names (Diagres_rc.Trc.head_schema schemas t)
  in
  let named names (e, cols) = (e, Some (List.combine names cols)) in
  let rec first = function
    | S.Query b -> b
    | S.Union (a, _) | S.Intersect (a, _) | S.Except (a, _) -> first a
  in
  match q with
  | Q_ra e -> (e, None)
  | Q_sql st ->
    named
      (trc_names (Diagres_sql.To_trc.of_query schemas (first st)))
      (Diagres_sql.To_ra.lower schemas st)
  | Q_trc t ->
    named (trc_names t)
      (L.lower schemas (Diagres_rc.Trc_to_drc.query schemas t))
  | Q_drc d -> named d.head (L.lower schemas d)
  | Q_datalog (p, goal) ->
    let e, cols =
      L.lower schemas (Diagres_datalog.To_drc.query schemas p ~goal)
    in
    named (List.mapi (fun i _ -> Diagres_datalog.Eval.column_name i) cols)
      (e, cols)

(** A query ready to serve: its lowered RA, the checked plan (shared with
    {!Diagres_ra.Plan_cache}), and how the plan's rows become the answer. *)
type served = {
  ra : Diagres_ra.Ast.t;
  plan : Diagres_ra.Plan.t;
  cached : bool;  (** the plan was served from {!Diagres_ra.Plan_cache} *)
  answer : Diagres_data.Relation.t -> Diagres_data.Relation.t;
}

(** Lower ({!lower}), typecheck and plan [q] through the plan cache — the
    one serving route of {!eval} and of registered views. *)
let serve db (q : query) : served =
  let module R = Diagres_data.Relation in
  let module L = Diagres_rc.Drc_to_ra in
  let ra, columns = lower (schemas_of db) q in
  let plan, cached = Diagres_ra.Eval.plan_checked db ra in
  let answer r =
    match columns with
    | None -> r
    | Some cols when L.plain (List.map snd cols) ->
      R.rename_all (List.map fst cols) r
    | Some cols ->
      let schema = R.schema r in
      let attr = function
        | n, L.Col i ->
          { (List.nth schema i) with Diagres_data.Schema.name = n }
        | n, L.Lit v ->
          Diagres_data.Schema.attr ~ty:(Diagres_data.Value.type_of v) n
      in
      let read t = function _, L.Col i -> t.(i) | _, L.Lit v -> v in
      R.map (List.map attr cols)
        (fun t -> Array.of_list (List.map (read t) cols))
        r
  in
  { ra; plan; cached; answer }

(** A served answer, and the query that computed it — its plan executed,
    so {!Diagres_ra.Plan.explain} shows actual row counts. *)
type answer = { result : Diagres_data.Relation.t; served : served }

(** The one serving route, for all five languages: lower to RA, typecheck,
    plan through the plan cache, execute ({!serve}).  The answer has
    {!eval_reference}'s columns, not the lowering's. *)
let eval db (q : query) : answer =
  T.with_span ~cat:"phase"
    ~attrs:(fun () -> [ ("lang", T.Str (name (lang_of q))) ])
    "eval"
  @@ fun () ->
  let s = serve db q in
  { result = s.answer (Diagres_ra.Plan.run s.plan); served = s }

(** The reference oracle: each language's native evaluator — TRC and DRC
    by calculus evaluation, Datalog bottom-up, SQL block by block as TRC,
    RA by the naive tree-walker.  None shares the lowering or the planner
    with {!eval}, which makes them its test oracle; nothing serves
    queries through them. *)
let eval_reference db (q : query) : Diagres_data.Relation.t =
  let module R = Diagres_data.Relation in
  let module S = Diagres_sql.Ast in
  let rec sql = function
    | S.Query b ->
      Diagres_rc.Trc.eval db (Diagres_sql.To_trc.of_query (schemas_of db) b)
    | S.Union (a, b) -> R.union (sql a) (sql b)
    | S.Intersect (a, b) -> R.inter (sql a) (sql b)
    | S.Except (a, b) -> R.diff (sql a) (sql b)
  in
  match q with
  | Q_ra e -> Diagres_ra.Eval.eval db e
  | Q_trc t -> Diagres_rc.Trc.eval db t
  | Q_drc d -> Diagres_rc.Drc.eval db d
  | Q_datalog (p, goal) -> Diagres_datalog.Eval.query db p ~goal
  | Q_sql st -> sql st

(** Render any query as SQL text via its TRC panels — the back-translation
    arm of the Fig. 2 loop. *)
let to_sql schemas (q : query) : Diagres_sql.Ast.statement =
  match q with
  | Q_sql st -> st
  | _ -> Diagres_sql.Of_trc.statement (to_trc_panels schemas q)

(** Pretty-print back to source text. *)
let to_string : query -> string = function
  | Q_sql st -> Diagres_sql.Pretty.to_string st
  | Q_ra e -> Diagres_ra.Pretty.ascii e
  | Q_trc q -> Diagres_rc.Trc.to_string q
  | Q_drc q -> Diagres_rc.Drc.to_string q
  | Q_datalog (p, _) -> Diagres_datalog.Ast.to_string p
