(** The end-to-end query-visualization pipeline (Figs. 1–2 of the paper):
    a textual query in any language → normalized TRC panels → the chosen
    diagrammatic formalism → SVG/ASCII, plus the verification loop that a
    diagram's reading evaluates to the same answers as the input.

    This is the programmatic counterpart of the tutorial's usage scenario:
    the "voice assistant" shows the user a diagram of the query it
    understood; the correctness of that loop is checkable, not assumed. *)

module D = Diagres_data
module Diag = Diagres_diag.Diag
module T = Diagres_telemetry.Telemetry

type formalism =
  | Relational_diagram
  | Query_vis
  | Dfql
  | Qbe
  | Beta_graph        (** Boolean queries only *)
  | String_diagram
  | Conceptual_graph

let formalism_name = function
  | Relational_diagram -> "relational-diagram"
  | Query_vis -> "queryvis"
  | Dfql -> "dfql"
  | Qbe -> "qbe"
  | Beta_graph -> "beta"
  | String_diagram -> "string"
  | Conceptual_graph -> "conceptual"

let formalism_of_name s =
  match String.lowercase_ascii s with
  | "relational-diagram" | "rd" -> Relational_diagram
  | "queryvis" | "qv" -> Query_vis
  | "dfql" -> Dfql
  | "qbe" -> Qbe
  | "beta" | "eg" -> Beta_graph
  | "string" -> String_diagram
  | "conceptual" | "cg" -> Conceptual_graph
  | _ ->
    Diag.error ~code:"E-CLI-FORMALISM-001" ~phase:Diag.Resolve ~needle:s
      ~hints:
        (Diag.did_you_mean
           ~candidates:
             [ "rd"; "relational-diagram"; "qv"; "queryvis"; "dfql"; "qbe";
               "beta"; "eg"; "string"; "cg"; "conceptual" ]
           s)
      "unknown formalism %S" s

let all_formalisms =
  [ Relational_diagram; Query_vis; Dfql; Qbe; Beta_graph; String_diagram;
    Conceptual_graph ]

type rendering = {
  formalism : formalism;
  panels_svg : string list;   (** one SVG document per panel *)
  panels_ascii : string list;
  panel_count : int;
}

exception Pipeline_error = Diag.Error

let viz_error code fmt = Diag.error ~code ~phase:Diag.Type fmt

(** Visualize a parsed query with a formalism.  Panels materialize the
    union decomposition where the formalism needs it. *)
let visualize schemas (q : Languages.query) (f : formalism) : rendering =
  T.with_span ~cat:"phase"
    ~attrs:(fun () -> [ ("formalism", T.Str (formalism_name f)) ])
    "visualize"
  @@ fun () ->
  let module G = Diagres_diagrams in
  let trc_panels () = Languages.to_trc_panels schemas q in
  let wrap svgs asciis =
    { formalism = f; panels_svg = svgs; panels_ascii = asciis;
      panel_count = List.length svgs }
  in
  match f with
  | Relational_diagram ->
    let rd = G.Relational_diagram.of_trc_queries (trc_panels ()) in
    wrap
      (G.Relational_diagram.to_svg rd)
      (List.map (fun p -> G.Scene.to_ascii p.G.Relational_diagram.scene)
         rd.G.Relational_diagram.panels)
  | Query_vis ->
    let qvs = List.map G.Queryvis.of_trc (trc_panels ()) in
    wrap (List.map G.Queryvis.to_svg qvs) (List.map G.Queryvis.to_ascii qvs)
  | Dfql ->
    let d = G.Dfql.of_ra (Languages.to_ra schemas q) in
    wrap [ G.Dfql.to_svg d ] [ G.Dfql.to_ascii d ]
  | Qbe -> (
    match q with
    | Languages.Q_datalog (p, goal) ->
      let qbe = G.Qbe.of_datalog schemas p ~goal in
      wrap [ G.Qbe.to_svg qbe ] [ G.Qbe.to_ascii qbe ]
    | _ ->
      viz_error "E-VIZ-001"
        "QBE generation follows the Datalog dataflow pattern: supply the \
         query as a Datalog program (the tutorial's point exactly)")
  | Beta_graph -> (
    let drc =
      match q with
      | Languages.Q_drc d -> d
      | _ -> (
        match trc_panels () with
        | [ t ] -> Diagres_rc.Translate.trc_to_drc schemas t
        | _ -> viz_error "E-VIZ-002" "beta graphs draw one panel")
    in
    match drc.Diagres_rc.Drc.head with
    | [] ->
      let g = G.Eg_beta.of_drc drc.Diagres_rc.Drc.body in
      wrap [ G.Eg_beta.to_svg g ] [ G.Eg_beta.to_ascii g ]
    | _ ->
      (* non-Boolean: fall through to the string-diagram extension *)
      let sd = G.String_diagram.of_drc_query drc in
      wrap [ G.String_diagram.to_svg sd ] [ G.String_diagram.to_ascii sd ])
  | String_diagram ->
    let drc =
      match q with
      | Languages.Q_drc d -> d
      | _ -> (
        match trc_panels () with
        | [ t ] -> Diagres_rc.Translate.trc_to_drc schemas t
        | _ -> viz_error "E-VIZ-003" "string diagrams draw one panel")
    in
    let sd = G.String_diagram.of_drc_query drc in
    wrap [ G.String_diagram.to_svg sd ] [ G.String_diagram.to_ascii sd ]
  | Conceptual_graph ->
    let cgs = List.map G.Conceptual_graph.of_trc (trc_panels ()) in
    wrap
      (List.map G.Conceptual_graph.to_svg cgs)
      (List.map G.Conceptual_graph.to_ascii cgs)

(** The verification loop: the answer the system serves for the original
    query ({!Languages.eval}) and the native TRC evaluation of its
    diagram's reading must return the same rows.  This is the executable
    form of the Fig. 2 interaction contract. *)
let verify_roundtrip db (q : Languages.query) : bool =
  let schemas = Languages.schemas_of db in
  let direct = (Languages.eval db q).Languages.result in
  let panels = Languages.to_trc_panels schemas q in
  let via_diagram =
    match panels with
    | [] -> viz_error "E-VIZ-004" "query produced no TRC panels"
    | p :: ps ->
      List.fold_left
        (fun acc q' -> D.Relation.union acc (Diagres_rc.Trc.eval db q'))
        (Diagres_rc.Trc.eval db p) ps
  in
  D.Relation.same_rows direct via_diagram

(** One-call convenience: parse, visualize, verify. *)
let run db lang_name src formalism_name_ =
  T.with_span ~cat:"phase" "pipeline" @@ fun () ->
  let schemas = Languages.schemas_of db in
  let q = Languages.parse (Languages.of_name lang_name) src in
  let r = visualize schemas q (formalism_of_name formalism_name_) in
  let verified = T.with_span ~cat:"phase" "verify" (fun () -> verify_roundtrip db q) in
  (q, r, verified)

(* -------------------------------------------------------------------- *)
(* Textual translation.                                                  *)

(* Union panels that share a head collapse back into one query with a
   disjunctive body — the inverse of {!Diagres_rc.Trc.panel_split} — so the
   printed TRC/DRC translation is a single term the corresponding parser
   accepts.  Ranges the head does not mention may differ between panels
   (the active-domain expansion produces such unions); they are pushed into
   per-disjunct existentials. *)
let merge_trc_panels (panels : Diagres_rc.Trc.query list) :
    Diagres_rc.Trc.query list =
  let module T = Diagres_rc.Trc in
  match panels with
  | [] | [ _ ] -> panels
  | p :: rest ->
    let head_vars (q : T.query) =
      List.concat_map
        (function T.Field (v, _) -> [ v ] | T.Const _ -> [])
        q.T.head
    in
    let split (q : T.query) =
      let hv = head_vars q in
      List.partition (fun (v, _) -> List.mem v hv) q.T.ranges
    in
    let keep, _ = split p in
    if
      List.for_all
        (fun (q : T.query) -> q.T.head = p.T.head && fst (split q) = keep)
        rest
    then
      let disjunct q =
        let _, extra = split q in
        if extra = [] then q.T.body else T.Exists (extra, q.T.body)
      in
      [ { p with
          T.ranges = keep;
          T.body =
            List.fold_left
              (fun acc q -> T.Or (acc, disjunct q))
              (disjunct p) rest } ]
    else panels

let comment_out text =
  String.split_on_char '\n' text
  |> List.map (fun l -> "-- " ^ l)
  |> String.concat "\n"

(** [translate_text db q target] renders [q] in [target]'s concrete syntax.
    The output re-parses under the target language's parser (the lexers
    skip [--] comments, so the optimized-RA annotation is safe) and
    evaluates to the same relation as [q] — the invertibility contract the
    roundtrip fuzz suite enforces. *)
let translate_text db (q : Languages.query) (target : Languages.lang) : string
    =
  let schemas = Languages.schemas_of db in
  match target with
  | Languages.Ra ->
    let ra = Languages.to_ra schemas q in
    Diagres_ra.Pretty.ascii ra
    ^ "\n"
    ^ comment_out
        ("optimized: "
        ^ Diagres_ra.Pretty.unicode (Diagres_ra.Optimize.optimize_db db ra))
  | Languages.Trc ->
    merge_trc_panels (Languages.to_trc_panels schemas q)
    |> List.map Diagres_rc.Trc.to_string
    |> String.concat "\nUNION\n"
  | Languages.Drc ->
    merge_trc_panels (Languages.to_trc_panels schemas q)
    |> List.map (fun t ->
           Diagres_rc.Drc.to_string
             (Diagres_rc.Translate.trc_to_drc schemas t))
    |> String.concat "\nUNION\n"
  | Languages.Sql ->
    Diagres_sql.Pretty.to_string (Languages.to_sql schemas q)
  | Languages.Datalog ->
    Diag.error ~code:"E-CLI-TARGET-001" ~phase:Diag.Resolve
      "can only translate to sql, ra, trc, or drc"
