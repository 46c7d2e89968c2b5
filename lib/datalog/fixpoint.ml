(** Recursive Datalog with stratified negation — the extension beyond the
    tutorial's non-recursive scope (its reference [3], QBD*, is exactly "a
    graphical query language with recursion").

    Evaluation is a stratified fixpoint: predicates are grouped into
    strongly connected components of the dependency graph; components are
    processed in topological order; within a component, rules iterate to a
    fixpoint.  Negation must point to a strictly lower component — checked,
    not assumed.

    Two engines are provided.  {!eval_program} is {e semi-naive}: each round
    joins every rule against only the {e delta} (the tuples first derived in
    the previous round), so a tuple's derivations are explored once rather
    than once per round.  {!eval_program_naive} is the textbook
    re-evaluate-everything loop, kept as the reference implementation for
    differential tests and the benchmark baseline. *)

module D = Diagres_data
module Pool = Diagres_pool.Pool
module T = Diagres_telemetry.Telemetry

(* Fixpoint telemetry: [datalog.rounds] counts every delta round across
   all strata (the semi-naive engine only); spans are per stratum
   ([stratum], attrs: predicates, rounds) and per round ([round], attrs:
   round index and the total delta size it produced). *)
let c_rounds = T.counter "datalog.rounds"

exception Fixpoint_error of string

let error fmt = Format.kasprintf (fun s -> raise (Fixpoint_error s)) fmt

(* ---------------- dependency SCCs (Tarjan) ---------------- *)

let sccs (nodes : string list) (edges : (string * string) list) :
    string list list =
  let node_set = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace node_set n ()) nodes;
  (* adjacency table, restricted to [nodes], built once: Tarjan is then
     O(V + E) instead of the O(V·E) of filtering the edge list per node *)
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      if Hashtbl.mem node_set a && Hashtbl.mem node_set b then
        Hashtbl.replace adj a (b :: (Option.value ~default:[] (Hashtbl.find_opt adj a))))
    edges;
  let succs n = Option.value ~default:[] (Hashtbl.find_opt adj n) in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack w false;
          if w = v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun n -> if not (Hashtbl.mem index n) then strongconnect n) nodes;
  (* Tarjan emits SCCs in reverse topological order *)
  List.rev !out

(* ---------------- stratification check ---------------- *)

(** Negation must not occur inside a recursive component: for every rule
    [h :- …, not p, …], [p] must be in a strictly earlier component. *)
let check_stratified (p : Ast.program) (components : string list list) =
  let comp_of = Hashtbl.create 16 in
  List.iteri
    (fun i comp -> List.iter (fun n -> Hashtbl.replace comp_of n i) comp)
    components;
  List.iter
    (fun (r : Ast.rule) ->
      let hc = Hashtbl.find_opt comp_of r.Ast.head.Ast.pred in
      List.iter
        (function
          | Ast.Neg a -> (
            match (hc, Hashtbl.find_opt comp_of a.Ast.pred) with
            | Some h, Some b when b >= h ->
              error
                "program is not stratified: %S is negated inside its own \
                 recursive component (rule %s)"
                a.Ast.pred (Ast.rule_to_string r)
            | _ -> ())
          | _ -> ())
        r.Ast.body)
    p

(* ---------------- shared fixpoint scaffolding ---------------- *)

let default_max_rounds = 10_000

let schema_for arities pred =
  let arity = List.assoc pred arities in
  List.init arity (fun i ->
      D.Schema.attr ~ty:D.Value.Tany (Eval.column_name i))

let diverged pred rounds =
  error
    "fixpoint did not converge after %d rounds while computing %S; the \
     program likely derives an unbounded set (pass ~max_rounds to raise \
     the bound)"
    rounds pred

(* static analysis of a program: components in topological order, plus the
   arity table; shared by both engines *)
let prepare (db : D.Database.t) (p : Ast.program) =
  let schemas =
    List.map (fun (n, r) -> (n, D.Relation.schema r)) (D.Database.relations db)
  in
  (* arity + safety checks are shared with the non-recursive engine; the
     non-recursion check is deliberately skipped *)
  let arities = Check.check_arities schemas p in
  Check.check_safety p;
  let idb = Ast.idb_preds p in
  let idb_set = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace idb_set n ()) idb;
  let edges =
    List.filter_map
      (fun (a, b, _) -> if Hashtbl.mem idb_set b then Some (a, b) else None)
      (Check.edges p)
  in
  let components = sccs idb edges in
  check_stratified p components;
  (arities, components)

(* ---------------- naive fixpoint (reference) ---------------- *)

(* one round of all rules for the predicates in [comp], against the current
   store; delegates single-rule evaluation to the shared engine *)
let eval_rules_once (store : D.Database.t) (p : Ast.program) (comp : string list) :
    (string * D.Tuple.t list) list =
  List.map
    (fun pred ->
      let rows =
        List.concat_map (Eval.eval_rule_tuples store) (Ast.rules_for p pred)
      in
      (pred, rows))
    comp

let eval_program_naive ?(max_rounds = default_max_rounds) (db : D.Database.t)
    (p : Ast.program) : D.Database.t =
  let arities, components = prepare db p in
  List.fold_left
    (fun store comp ->
      (* seed the component's predicates as empty *)
      let store =
        List.fold_left
          (fun st pred ->
            D.Database.add pred (D.Relation.empty (schema_for arities pred)) st)
          store comp
      in
      let rec iterate store round =
        if round > max_rounds then diverged (List.hd comp) max_rounds;
        let updates = eval_rules_once store p comp in
        let store', changed =
          List.fold_left
            (fun (st, ch) (pred, rows) ->
              let old = D.Database.find pred st in
              let merged =
                List.fold_left (fun r t -> D.Relation.add t r) old rows
              in
              ( D.Database.add pred merged st,
                ch || D.Relation.cardinality merged > D.Relation.cardinality old ))
            (store, false) updates
        in
        if changed then iterate store' (round + 1) else store'
      in
      iterate store 0)
    db components

(* ---------------- parallel rule evaluation ---------------- *)

(* One delta round evaluates many independent rule bodies against a frozen
   store — the natural unit of parallelism for recursive programs.  Each
   (pred, rule) pair becomes one pool task; results are regrouped per
   predicate in the original order, so the merged tuple sets are identical
   to the sequential engine's at any domain count.  The store is an
   immutable map and the per-relation index caches are mutex-guarded, so
   concurrent body evaluations are safe. *)
let eval_rules_parallel (store : D.Database.t)
    (tasks : (string * Ast.rule) list) : (string * D.Tuple.t list) list =
  let rows =
    Pool.parallel_list_map
      (fun (_, r) -> Eval.eval_rule_tuples store r)
      tasks
  in
  List.map2 (fun (pred, _) rows -> (pred, rows)) tasks rows

(* Regroup flat (pred, rows) results per predicate, in [preds] order. *)
let group_rows preds (results : (string * D.Tuple.t list) list) :
    (string * D.Tuple.t list) list =
  List.map
    (fun pred ->
      ( pred,
        List.concat_map
          (fun (p, rows) -> if p = pred then rows else [])
          results ))
    preds

(* ---------------- semi-naive fixpoint ---------------- *)

(* Reserved name under which the delta of a recursive predicate is exposed
   to the rule evaluator.  The parser's identifiers cannot contain '@', so
   this can never collide with a user predicate. *)
let delta_name pred = pred ^ "@delta"

(* Semi-naive rewriting of a rule: one variant per positive occurrence of a
   predicate of the current component, with that single occurrence redirected
   to the delta relation.  A new derivation in round i must use at least one
   tuple first derived in round i−1, so evaluating all variants against
   (full, delta) reaches exactly the new tuples. *)
let delta_variants in_comp (r : Ast.rule) : Ast.rule list =
  let rec go before after acc =
    match after with
    | [] -> List.rev acc
    | (Ast.Pos a as l) :: rest when in_comp a.Ast.pred ->
      let redirected = Ast.Pos { a with Ast.pred = delta_name a.Ast.pred } in
      let variant =
        { r with Ast.body = List.rev_append before (redirected :: rest) }
      in
      go (l :: before) rest (variant :: acc)
    | l :: rest -> go (l :: before) rest acc
  in
  go [] r.Ast.body []

let delta_total ds =
  List.fold_left (fun a (_, d) -> a + D.Relation.cardinality d) 0 ds

let eval_program ?(max_rounds = default_max_rounds) (db : D.Database.t)
    (p : Ast.program) : D.Database.t =
  let arities, components = prepare db p in
  List.fold_left
    (fun store comp ->
      T.with_span ~cat:"fixpoint"
        ~attrs:(fun () -> [ ("predicates", T.Str (String.concat "," comp)) ])
        "stratum"
      @@ fun () ->
      let comp_set = Hashtbl.create 4 in
      List.iter (fun n -> Hashtbl.replace comp_set n ()) comp;
      let in_comp n = Hashtbl.mem comp_set n in
      let rules pred = Ast.rules_for p pred in
      (* precomputed delta rewritings, one list per predicate *)
      let variants =
        List.map (fun pred -> (pred, List.concat_map (delta_variants in_comp) (rules pred))) comp
      in
      (* seed the component's predicates as empty *)
      let store =
        List.fold_left
          (fun st pred ->
            D.Database.add pred (D.Relation.empty (schema_for arities pred)) st)
          store comp
      in
      (* round 0: full evaluation of every rule gives the initial deltas;
         rule bodies across the whole component run on the domain pool *)
      let sp0 = T.start ~cat:"fixpoint" "round" in
      let round0 =
        group_rows comp
          (eval_rules_parallel store
             (List.concat_map
                (fun pred -> List.map (fun r -> (pred, r)) (rules pred))
                comp))
      in
      let store, deltas =
        List.fold_left
          (fun (st, ds) (pred, rows) ->
            let rel =
              List.fold_left
                (fun r t -> D.Relation.add t r)
                (D.Relation.empty (schema_for arities pred))
                rows
            in
            (D.Database.add pred rel st, (pred, rel) :: ds))
          (store, []) round0
      in
      T.incr c_rounds;
      T.finish
        ~attrs:[ ("round", T.Int 0); ("delta", T.Int (delta_total deltas)) ]
        sp0;
      let rec iterate store deltas round =
        if List.for_all (fun (_, d) -> D.Relation.is_empty d) deltas then store
        else if round > max_rounds then diverged (List.hd comp) max_rounds
        else begin
          let sp = T.start ~cat:"fixpoint" "round" in
          (* expose the deltas under their reserved names *)
          let probe_store =
            List.fold_left
              (fun st (pred, d) -> D.Database.add (delta_name pred) d st)
              store deltas
          in
          (* evaluate only the delta variants — every variant of every
             predicate of the component as one parallel batch against the
             frozen probe store — then keep the genuinely new tuples *)
          let round_rows =
            group_rows (List.map fst variants)
              (eval_rules_parallel probe_store
                 (List.concat_map
                    (fun (pred, vs) -> List.map (fun v -> (pred, v)) vs)
                    variants))
          in
          let store', deltas' =
            List.fold_left
              (fun (st, ds) (pred, rows) ->
                let full = D.Database.find pred st in
                let fresh =
                  List.fold_left
                    (fun acc t ->
                      if D.Relation.mem t full || D.Relation.mem t acc then acc
                      else D.Relation.add t acc)
                    (D.Relation.empty (schema_for arities pred))
                    rows
                in
                let full' =
                  D.Relation.fold (fun t r -> D.Relation.add t r) fresh full
                in
                (D.Database.add pred full' st, (pred, fresh) :: ds))
              (store, []) round_rows
          in
          T.incr c_rounds;
          T.finish
            ~attrs:
              [ ("round", T.Int round);
                ("delta", T.Int (delta_total deltas')) ]
            sp;
          iterate store' deltas' (round + 1)
        end
      in
      iterate store deltas 1)
    db components

let query ?max_rounds db p ~goal =
  let store = eval_program ?max_rounds db p in
  match D.Database.find_opt goal store with
  | Some r -> r
  | None -> error "goal predicate not defined: %s" goal

let query_naive ?max_rounds db p ~goal =
  let store = eval_program_naive ?max_rounds db p in
  match D.Database.find_opt goal store with
  | Some r -> r
  | None -> error "goal predicate not defined: %s" goal
