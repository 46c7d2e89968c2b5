(** Bottom-up evaluation.

    IDB predicates are computed in dependency order (one pass suffices:
    the program is non-recursive).  Rule bodies run as nested-loop joins
    with environment propagation; negative literals and conditions are
    delayed until their variables are bound, which the safety check
    guarantees will happen. *)

module D = Diagres_data

exception Eval_error of string

type env = (string * D.Value.t) list

(** The name of an IDB relation's [i]-th (0-based) column: [x1], [x2], …
    Every Datalog answer, whichever engine computes it, carries these. *)
let column_name i = Printf.sprintf "x%d" (i + 1)

let term_value (env : env) = function
  | Ast.Const c -> Some c
  | Ast.Var x -> List.assoc_opt x env

(* Match an atom against a tuple, extending the environment; None on
   mismatch. *)
let match_atom (env : env) (a : Ast.atom) (tup : D.Tuple.t) : env option =
  let rec go env i = function
    | [] -> Some env
    | t :: rest -> (
      let v = D.Tuple.get tup i in
      match t with
      | Ast.Const c -> if D.Value.equal c v then go env (i + 1) rest else None
      | Ast.Var x -> (
        match List.assoc_opt x env with
        | Some bound ->
          if D.Value.equal bound v then go env (i + 1) rest else None
        | None -> go ((x, v) :: env) (i + 1) rest))
  in
  go env 0 a.Ast.args

let literal_ready env = function
  | Ast.Pos _ -> true
  | Ast.Neg a -> List.for_all (fun v -> List.mem_assoc v env) (Ast.atom_vars a)
  | Ast.Cond (_, x, y) ->
    List.for_all
      (fun v -> List.mem_assoc v env)
      (Ast.term_vars x @ Ast.term_vars y)

(* Number of already-bound argument positions of an atom — the selectivity
   heuristic for join ordering: the more bound columns, the narrower the
   index probe. *)
let bound_count env (a : Ast.atom) =
  List.fold_left
    (fun n t ->
      match t with
      | Ast.Const _ -> n + 1
      | Ast.Var x -> if List.mem_assoc x env then n + 1 else n)
    0 a.Ast.args

(* Pick the next evaluable literal: prefer bound-only negations and
   conditions (cheap filters), else the positive literal with the most
   bound argument positions (the most index-selective probe). *)
let pick env literals =
  let rec go acc = function
    | [] -> None
    | l :: rest ->
      if literal_ready env l && (match l with Ast.Pos _ -> false | _ -> true)
      then Some (l, List.rev_append acc rest)
      else go (l :: acc) rest
  in
  match go [] literals with
  | Some x -> Some x
  | None ->
    let best =
      List.fold_left
        (fun best (i, l) ->
          match l with
          | Ast.Pos a -> (
            let c = bound_count env a in
            match best with
            | Some (_, _, c') when c' >= c -> best
            | _ -> Some (i, l, c))
          | _ -> best)
        None
        (List.mapi (fun i l -> (i, l)) literals)
    in
    Option.map
      (fun (i, l, _) ->
        (l, List.filteri (fun j _ -> j <> i) literals))
      best

let lookup store name =
  match D.Database.find_opt name store with
  | Some r -> r
  | None -> raise (Eval_error ("predicate not yet computed: " ^ name))

(** Evaluate one rule's body against [store], returning the head tuples it
    derives.  Shared by the non-recursive engine below and the stratified
    fixpoint engine ({!Fixpoint}). *)
let eval_rule_tuples store (r : Ast.rule) : D.Tuple.t list =
    let rec go env literals acc =
      match pick env literals with
      | None ->
        if literals <> [] then
          raise (Eval_error ("cannot order body of rule " ^ Ast.rule_to_string r));
        let row =
          List.map
            (fun t ->
              match term_value env t with
              | Some v -> v
              | None -> raise (Eval_error "unbound head variable"))
            r.Ast.head.Ast.args
        in
        D.Tuple.of_list row :: acc
      | Some (Ast.Pos a, rest) ->
        (* probe the relation through an index on the atom's bound argument
           positions (constants and env-bound variables); match_atom then
           only has to bind the remaining variables *)
        let rel = lookup store a.Ast.pred in
        let positions, key_rev =
          List.fold_left
            (fun (ps, ks) (i, t) ->
              match t with
              | Ast.Const c -> (i :: ps, c :: ks)
              | Ast.Var x -> (
                match List.assoc_opt x env with
                | Some v -> (i :: ps, v :: ks)
                | None -> (ps, ks)))
            ([], [])
            (List.mapi (fun i t -> (i, t)) a.Ast.args)
        in
        let positions = List.rev positions in
        let key = Array.of_list (List.rev key_rev) in
        List.fold_left
          (fun acc tup ->
            match match_atom env a tup with
            | Some env' -> go env' rest acc
            | None -> acc)
          acc
          (D.Relation.matching rel positions key)
      | Some (Ast.Neg a, rest) ->
        (* a negated literal is only picked once all its variables are
           bound (safety + readiness), so this is a membership test *)
        let rel = lookup store a.Ast.pred in
        let tup =
          List.map
            (fun t ->
              match term_value env t with
              | Some v -> v
              | None -> raise (Eval_error "unbound variable in negated literal"))
            a.Ast.args
        in
        if D.Relation.mem (D.Tuple.of_list tup) rel then acc
        else go env rest acc
      | Some (Ast.Cond (op, x, y), rest) -> (
        match (term_value env x, term_value env y) with
        | Some a, Some b ->
          if Diagres_logic.Fol.cmp_eval op a b then go env rest acc else acc
        | _ -> raise (Eval_error "unbound variable in condition"))
    in
  go [] r.Ast.body []

let eval_program (db : D.Database.t) (p : Ast.program) : D.Database.t =
  let schemas =
    List.map (fun (n, r) -> (n, D.Relation.schema r)) (D.Database.relations db)
  in
  ignore (Check.check_program schemas p);
  let order = Check.eval_order p in
  List.fold_left
    (fun store pred ->
      let rules = Ast.rules_for p pred in
      let arity =
        match rules with
        | r :: _ -> List.length r.Ast.head.Ast.args
        | [] -> 0
      in
      let rows = List.concat_map (eval_rule_tuples store) rules in
      let ty_of i =
        match rows with
        | [] -> D.Value.Tany
        | row :: _ -> D.Value.type_of (D.Tuple.get row i)
      in
      let schema =
        List.init arity (fun i ->
            D.Schema.attr ~ty:(ty_of i) (column_name i))
      in
      D.Database.add pred (D.Relation.of_tuples schema rows) store)
    db order

(** Evaluate and return the relation of predicate [goal]. *)
let query db p ~goal =
  let store = eval_program db p in
  match D.Database.find_opt goal store with
  | Some r -> r
  | None -> raise (Eval_error ("goal predicate not defined: " ^ goal))
