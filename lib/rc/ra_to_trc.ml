(** RA → range-coupled TRC.

    Works on union-free expressions (after {!Ra_rewrite.union_free_forms});
    the public entry point returns one TRC query per union-free form — the
    "panels" of a Relational Diagram.  Each subexpression is represented by
    free tuple-variable ranges, a body formula, and one output term per
    column. *)

module A = Diagres_ra.Ast
module N = Diagres_logic.Names

exception Union_not_supported

type rep = {
  ranges : (string * string) list;
  body : Trc.formula;
  cols : (string * Trc.term) list;  (** attribute name → output term *)
}

let operand_term cols = function
  | A.Attr a -> (
    match List.assoc_opt a cols with
    | Some t -> t
    | None -> Trc.type_error "unknown attribute %S in predicate" a)
  | A.Const c -> Trc.Const c

let rec pred_formula cols = function
  | A.Cmp (op, x, y) -> Trc.Cmp (op, operand_term cols x, operand_term cols y)
  | A.And (p, q) -> Trc.And (pred_formula cols p, pred_formula cols q)
  | A.Or (p, q) -> Trc.Or (pred_formula cols p, pred_formula cols q)
  | A.Not p -> Trc.Not (pred_formula cols p)
  | A.Ptrue -> Trc.True

let conj a b =
  match (a, b) with Trc.True, f | f, Trc.True -> f | _ -> Trc.And (a, b)

(* Equate the output columns of two representations pairwise. *)
let columns_equal ra rb =
  List.fold_left2
    (fun acc (_, ta) (_, tb) ->
      if ta = tb then acc else conj acc (Trc.Cmp (Diagres_logic.Fol.Eq, ta, tb)))
    Trc.True ra.cols rb.cols

(* [reuse = (a, ra)]: [a] is the left operand of an enclosing difference,
   already bound as [ra].  Met at the end of the spine of the right operand
   (the path through selections, column-keeping projections and left join
   operands), [a] stands for the tuple being tested, so it reuses [ra]'s
   variables instead of a copy of its ranges: the anti-join
   [a − π(a ⋈ x)] becomes [a ∧ ¬∃x(…)], correlated on [a]'s variables. *)
let rec translate ?reuse env supply (e : A.t) : rep =
  match reuse with
  | Some (a, ra) when A.equal e a -> { ra with ranges = []; body = Trc.True }
  | _ -> translate_node ?reuse env supply e

and translate_node ?reuse env supply (e : A.t) : rep =
  (* [spine] continues the spine of a reused operand; [fresh] leaves it *)
  let spine e1 = translate ?reuse env supply e1 in
  let fresh e1 = translate env supply e1 in
  match e with
  | A.Rel r ->
    let attrs = Diagres_data.Schema.names (Diagres_ra.Typecheck.infer env e) in
    let v = N.fresh supply (String.lowercase_ascii (String.sub r 0 1) ^ "_") in
    { ranges = [ (v, r) ];
      body = Trc.True;
      cols = List.map (fun a -> (a, Trc.Field (v, a))) attrs }
  | A.Empty e1 ->
    (* the calculus has no ∅ literal; e − e is the classical encoding *)
    fresh (A.Diff (e1, e1))
  | A.Select (p, e1) ->
    let r1 = spine e1 in
    { r1 with body = conj r1.body (pred_formula r1.cols p) }
  | A.Project (attrs, e1) ->
    let keeps_reused =
      match reuse with
      | Some (_, ra) -> List.for_all (fun (a, _) -> List.mem a attrs) ra.cols
      | None -> false
    in
    let r1 = if keeps_reused then spine e1 else fresh e1 in
    (* ranges stay free: projection is just head narrowing under set
       semantics *)
    { r1 with cols = List.map (fun a -> (a, List.assoc a r1.cols)) attrs }
  | A.Rename (pairs, e1) ->
    let r1 = fresh e1 in
    let cols =
      List.map
        (fun (a, t) ->
          match List.assoc_opt a pairs with
          | Some fresh -> (fresh, t)
          | None -> (a, t))
        r1.cols
    in
    { r1 with cols }
  | A.Product (a, b) ->
    let ra = spine a in
    let rb = fresh b in
    { ranges = ra.ranges @ rb.ranges;
      body = conj ra.body rb.body;
      cols = ra.cols @ rb.cols }
  | A.Join (a, b) ->
    let ra = spine a in
    let rb = fresh b in
    let shared = List.filter (fun (n, _) -> List.mem_assoc n ra.cols) rb.cols in
    let joins =
      List.fold_left
        (fun acc (n, tb) ->
          conj acc (Trc.Cmp (Diagres_logic.Fol.Eq, List.assoc n ra.cols, tb)))
        Trc.True shared
    in
    let b_rest =
      List.filter (fun (n, _) -> not (List.mem_assoc n ra.cols)) rb.cols
    in
    { ranges = ra.ranges @ rb.ranges;
      body = conj (conj ra.body rb.body) joins;
      cols = ra.cols @ b_rest }
  | A.Theta_join (p, a, b) ->
    let ra = spine a in
    let rb = fresh b in
    let cols = ra.cols @ rb.cols in
    { ranges = ra.ranges @ rb.ranges;
      body = conj (conj ra.body rb.body) (pred_formula cols p);
      cols }
  | A.Inter (a, b) ->
    let ra = spine a in
    let rb = fresh b in
    (* A ∩ B  =  A(t̄) ∧ ∃(B's ranges): B(ū) ∧ t̄ = ū *)
    let inner = conj rb.body (columns_equal ra rb) in
    let quantified =
      if rb.ranges = [] then inner else Trc.Exists (rb.ranges, inner)
    in
    { ranges = ra.ranges; body = conj ra.body quantified; cols = ra.cols }
  | A.Diff (a, b) ->
    let ra = spine a in
    let rb =
      (* reuse needs b's columns to line up with a's by name, since the
         difference compares positionally *)
      let names r = List.map fst r.cols in
      let rb = translate ~reuse:(a, ra) env supply b in
      if names rb = names ra then rb else fresh b
    in
    let inner = conj rb.body (columns_equal ra rb) in
    let quantified =
      if rb.ranges = [] then inner else Trc.Exists (rb.ranges, inner)
    in
    { ranges = ra.ranges; body = conj ra.body (Trc.Not quantified); cols = ra.cols }
  | A.Union _ -> raise Union_not_supported
  | A.Division _ -> fresh (Ra_rewrite.eliminate_division env e)

(* Renumber the tuple variables: the ranges the head mentions first, then
   the query's other ranges, then the quantified ones.  The supply numbers
   variables in translation order, so without this two panels of one union
   could name the same head range differently, depending on how many ranges
   their negated parts consumed first. *)
let renumber (q : Trc.query) : Trc.query =
  let rec declared = function
    | Trc.True | Trc.False | Trc.Cmp _ -> []
    | Trc.Not f -> declared f
    | Trc.And (a, b) | Trc.Or (a, b) | Trc.Implies (a, b) ->
      declared a @ declared b
    | Trc.Exists (rs, f) | Trc.Forall (rs, f) -> rs @ declared f
  in
  let in_head (v, _) = List.mem v (List.concat_map Trc.term_vars q.Trc.head) in
  let head_ranges, other_ranges = List.partition in_head q.Trc.ranges in
  let ranges = head_ranges @ other_ranges @ declared q.Trc.body in
  let fresh =
    List.mapi
      (fun i (v, r) ->
        let prefix = String.lowercase_ascii (String.sub r 0 1) in
        (v, Printf.sprintf "%s_%d" prefix (i + 1)))
      ranges
  in
  let var v = match List.assoc_opt v fresh with Some v' -> v' | None -> v in
  let term = function Trc.Field (v, a) -> Trc.Field (var v, a) | t -> t in
  let rename_ranges = List.map (fun (v, r) -> (var v, r)) in
  let rec formula = function
    | (Trc.True | Trc.False) as f -> f
    | Trc.Cmp (op, a, b) -> Trc.Cmp (op, term a, term b)
    | Trc.Not f -> Trc.Not (formula f)
    | Trc.And (a, b) -> Trc.And (formula a, formula b)
    | Trc.Or (a, b) -> Trc.Or (formula a, formula b)
    | Trc.Implies (a, b) -> Trc.Implies (formula a, formula b)
    | Trc.Exists (rs, f) -> Trc.Exists (rename_ranges rs, formula f)
    | Trc.Forall (rs, f) -> Trc.Forall (rename_ranges rs, formula f)
  in
  { Trc.head = List.map term q.Trc.head;
    ranges = rename_ranges q.Trc.ranges;
    body = formula q.Trc.body }

(** Translate one union-free expression to a single TRC query. *)
let union_free_query env (e : A.t) : Trc.query =
  let supply = N.create () in
  let rep = translate env supply e in
  renumber
    { Trc.head = List.map snd rep.cols; ranges = rep.ranges; body = rep.body }

(** General entry point: a list of TRC queries whose union is the input —
    one per Relational-Diagram panel. *)
let queries env (e : A.t) : Trc.query list =
  List.map (union_free_query env) (Ra_rewrite.union_free_forms env e)

let queries_db db e = queries (Diagres_ra.Typecheck.env_of_database db) e
