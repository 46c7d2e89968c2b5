(** Tuple Relational Calculus with range-coupled quantifiers.

    Every tuple variable — free or quantified — is declared with the relation
    it ranges over ([∃t ∈ Reserves], [t ∈ Sailor]).  This is the dialect the
    tutorial (and the Relational Diagrams paper [26]) builds on: range
    coupling makes safety syntactic and gives each diagram box a table name.

    A query is [{ t.a, u.b | t ∈ R, u ∈ S : φ }]; a sentence (Boolean query /
    logical statement) has an empty head and no free ranges. *)

type term =
  | Field of string * string  (** [t.attr] *)
  | Const of Diagres_data.Value.t

type formula =
  | True
  | False
  | Cmp of Diagres_logic.Fol.cmp * term * term
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Exists of (string * string) list * formula
      (** [∃ v₁∈R₁, …, vₖ∈Rₖ : φ] *)
  | Forall of (string * string) list * formula

type query = {
  head : term list;            (** output terms, left to right *)
  ranges : (string * string) list;  (** free variables with their relations *)
  body : formula;
}

let field v a = Field (v, a)
let const v = Const v
let cmp op a b = Cmp (op, a, b)
let eq a b = Cmp (Diagres_logic.Fol.Eq, a, b)
let conj = function [] -> True | x :: xs -> List.fold_left (fun a b -> And (a, b)) x xs
let disj = function [] -> False | x :: xs -> List.fold_left (fun a b -> Or (a, b)) x xs

let query ?(head = []) ?(ranges = []) body = { head; ranges; body }

(** Tuple variables used (declared) anywhere in a formula. *)
let rec declared_vars = function
  | True | False | Cmp _ -> []
  | Not f -> declared_vars f
  | And (a, b) | Or (a, b) | Implies (a, b) -> declared_vars a @ declared_vars b
  | Exists (rs, f) | Forall (rs, f) -> List.map fst rs @ declared_vars f

let term_vars = function Field (v, _) -> [ v ] | Const _ -> []

(** Free tuple variables of a formula (occurring, minus bound). *)
let rec free_vars = function
  | True | False -> []
  | Cmp (_, a, b) -> term_vars a @ term_vars b
  | Not f -> free_vars f
  | And (a, b) | Or (a, b) | Implies (a, b) -> free_vars a @ free_vars b
  | Exists (rs, f) | Forall (rs, f) ->
    let bound = List.map fst rs in
    List.filter (fun v -> not (List.mem v bound)) (free_vars f)

let free_var_list f = List.sort_uniq String.compare (free_vars f)

(** Fields [v.a] referenced for each variable — used to typecheck against
    the relation schemas and to label diagram attributes. *)
let rec fields = function
  | True | False -> []
  | Cmp (_, a, b) ->
    List.filter_map (function Field (v, x) -> Some (v, x) | Const _ -> None) [ a; b ]
  | Not f -> fields f
  | And (a, b) | Or (a, b) | Implies (a, b) -> fields a @ fields b
  | Exists (_, f) | Forall (_, f) -> fields f

let rec size = function
  | True | False | Cmp _ -> 1
  | Not f -> 1 + size f
  | And (a, b) | Or (a, b) | Implies (a, b) -> 1 + size a + size b
  | Exists (rs, f) | Forall (rs, f) -> List.length rs + size f

(** Rewrite ∀ as ¬∃¬ and eliminate ⇒ — the normal form Relational Diagrams
    and Peirce-style readings draw directly. *)
let rec existentialize = function
  | (True | False | Cmp _) as f -> f
  | Not f -> Not (existentialize f)
  | And (a, b) -> And (existentialize a, existentialize b)
  | Or (a, b) -> Or (existentialize a, existentialize b)
  | Implies (a, b) -> Or (Not (existentialize a), existentialize b)
  | Exists (rs, f) -> Exists (rs, existentialize f)
  | Forall (rs, f) -> Not (Exists (rs, Not (existentialize f)))

(** Does the formula (after ⇒-elimination) contain a disjunction?  Union-free
    TRC is the fragment a single Relational Diagram panel can show. *)
let rec has_disjunction = function
  | True | False | Cmp _ -> false
  | Not f -> has_disjunction f
  | And (a, b) -> has_disjunction a || has_disjunction b
  | Or _ -> true
  | Implies (a, b) -> has_disjunction a || has_disjunction b
  | Exists (_, f) | Forall (_, f) -> has_disjunction f

(** Can the formula be drawn in a single nested-box panel?  This mirrors the
    negation-pushing the diagram normalizer performs: a disjunction is
    harmless exactly when it sits under an odd number of negations (it then
    turns into a conjunction), and an implication is harmless in negative
    position or directly under ∀. *)
let rec single_panel = function
  | True | False | Cmp _ -> true
  | And (a, b) -> single_panel a && single_panel b
  | Or _ | Implies _ -> false
  | Not g -> single_panel_neg g
  | Exists (_, g) -> single_panel g
  | Forall (_, g) -> single_panel_neg g

(* drawability of ¬g as box contents *)
and single_panel_neg = function
  | True | False | Cmp _ -> true
  | Or (a, b) -> single_panel_neg a && single_panel_neg b
  | Implies (a, b) -> single_panel a && single_panel_neg b
  | Not g -> single_panel g
  | And (a, b) -> single_panel a && single_panel b
  | Exists (_, g) -> single_panel g
  | Forall (_, g) -> single_panel_neg g

(** Decompose a body into single-panel disjuncts: [f ≡ ⋁ᵢ fᵢ] with every
    [fᵢ] satisfying {!single_panel}.  Positive disjunctions distribute out;
    disjunctions under a negation flip into conjunctions of negated boxes
    ([¬(d₁ ∨ d₂) = ¬d₁ ∧ ¬d₂]) and stay inside one panel.  The length of
    the result is the number of diagram panels a query needs. *)
let rec panel_split (f : formula) : formula list =
  match f with
  | True | False | Cmp _ -> [ f ]
  | Or (a, b) -> panel_split a @ panel_split b
  | And (a, b) ->
    List.concat_map
      (fun x -> List.map (fun y -> And (x, y)) (panel_split b))
      (panel_split a)
  | Implies (a, b) -> panel_split (Or (Not a, b))
  | Exists (rs, g) -> List.map (fun d -> Exists (rs, d)) (panel_split g)
  | Forall (rs, g) -> panel_split (Not (Exists (rs, Not g)))
  | Not g ->
    [ conj (List.map (fun d -> Not d) (panel_split g)) ]

(* -------------------------------------------------------------------- *)
(* Pretty-printing: concrete syntax accepted back by [Trc_parser].       *)

let term_to_string = function
  | Field (v, a) -> v ^ "." ^ a
  | Const c -> Diagres_data.Value.to_literal c

let range_to_string (v, r) = v ^ " in " ^ r

let prec = function
  | True | False | Cmp _ -> 5
  | Not _ -> 4
  | And _ -> 3
  | Or _ -> 2
  | Implies _ -> 1
  | Exists _ | Forall _ -> 0

let rec formula_to_string f =
  let sub child =
    if prec child <= prec f && child <> f then
      "(" ^ formula_to_string child ^ ")"
    else formula_to_string child
  in
  let sub_loose child =
    if prec child < prec f then "(" ^ formula_to_string child ^ ")"
    else formula_to_string child
  in
  match f with
  | True -> "true"
  | False -> "false"
  | Cmp (op, a, b) ->
    Printf.sprintf "%s %s %s" (term_to_string a)
      (Diagres_logic.Fol.cmp_name op)
      (term_to_string b)
  | Not g -> "not " ^ (if prec g < 4 then "(" ^ formula_to_string g ^ ")" else formula_to_string g)
  | And (a, b) -> sub_loose a ^ " and " ^ sub b
  | Or (a, b) -> sub_loose a ^ " or " ^ sub b
  | Implies (a, b) -> sub a ^ " implies " ^ sub_loose b
  | Exists (rs, g) ->
    Printf.sprintf "exists %s (%s)"
      (String.concat ", " (List.map range_to_string rs))
      (formula_to_string g)
  | Forall (rs, g) ->
    Printf.sprintf "forall %s (%s)"
      (String.concat ", " (List.map range_to_string rs))
      (formula_to_string g)

let to_string q =
  Printf.sprintf "{ %s | %s%s%s }"
    (String.concat ", " (List.map term_to_string q.head))
    (String.concat ", " (List.map range_to_string q.ranges))
    (if q.ranges = [] then "" else " : ")
    (formula_to_string q.body)

let pp ppf q = Fmt.string ppf (to_string q)

(* -------------------------------------------------------------------- *)
(* Typechecking against database schemas.                                *)

module Diag = Diagres_diag.Diag

exception Type_error = Diag.Error

(** Generic TRC type error (used by the translators for conditions they
    detect themselves); {!typecheck} raises more specific codes. *)
let type_error fmt =
  Diag.error ~code:"E-TRC-TYPE-000" ~phase:Diag.Type fmt

(** Check that every variable is declared exactly once with a known relation
    and that every referenced field exists in that relation's schema, and
    that comparison operands have compatible static types.
    Returns the scope of the query head: the free ranges. *)
let typecheck (schemas : (string * Diagres_data.Schema.t) list) (q : query) =
  let err ?hints ?needle code fmt =
    Diag.error ?hints ?needle ~code ~phase:Diag.Type fmt
  in
  let lookup_rel r =
    match List.assoc_opt r schemas with
    | Some s -> s
    | None ->
      err "E-TRC-TYPE-001" ~needle:r
        ~hints:(Diag.did_you_mean ~candidates:(List.map fst schemas) r)
        "unknown relation %S" r
  in
  let check_ranges scope rs =
    List.fold_left
      (fun scope (v, r) ->
        if List.mem_assoc v scope then
          err "E-TRC-TYPE-002" ~needle:v "variable %S redeclared" v;
        ignore (lookup_rel r);
        (v, r) :: scope)
      scope rs
  in
  let check_term scope = function
    | Const _ -> ()
    | Field (v, a) -> (
      match List.assoc_opt v scope with
      | None ->
        err "E-TRC-TYPE-003" ~needle:(v ^ "." ^ a)
          ~hints:(Diag.did_you_mean ~candidates:(List.map fst scope) v)
          "variable %S not in scope" v
      | Some r ->
        if not (Diagres_data.Schema.mem a (lookup_rel r)) then
          err "E-TRC-TYPE-004" ~needle:(v ^ "." ^ a)
            ~hints:
              (Diag.did_you_mean
                 ~candidates:(Diagres_data.Schema.names (lookup_rel r))
                 a)
            "relation %S has no attribute %S (via %s.%s)" r a v a)
  in
  let term_ty scope = function
    | Const c -> Diagres_data.Value.type_of c
    | Field (v, a) ->
      let r = List.assoc v scope in
      (match Diagres_data.Schema.find_opt a (lookup_rel r) with
      | Some at -> at.Diagres_data.Schema.ty
      | None -> Diagres_data.Value.Tany)
  in
  let rec check scope = function
    | True | False -> ()
    | Cmp (op, a, b) ->
      check_term scope a;
      check_term scope b;
      let ta = term_ty scope a and tb = term_ty scope b in
      if not (Diagres_data.Value.ty_compatible ta tb) then
        err "E-TRC-TYPE-005" ~needle:(term_to_string b)
          "cannot compare %s (of type %s) %s %s (of type %s): operand types \
           are incompatible"
          (term_to_string a)
          (Diagres_data.Value.ty_name ta)
          (Diagres_logic.Fol.cmp_name op) (term_to_string b)
          (Diagres_data.Value.ty_name tb)
    | Not f -> check scope f
    | And (a, b) | Or (a, b) | Implies (a, b) ->
      check scope a;
      check scope b
    | Exists (rs, f) | Forall (rs, f) -> check (check_ranges scope rs) f
  in
  let scope = check_ranges [] q.ranges in
  List.iter (check_term scope) q.head;
  check scope q.body;
  scope

(** Fold statically ill-typed equalities to [False], then boolean-simplify.

    The active-domain DRC→TRC expansion ranges a variable over every
    attribute of every relation, so its union branches routinely equate,
    say, a [string] column with an [int] column.  Values of incompatible
    static types are never equal, so each such branch is empty; folding it
    away keeps machine-generated panels inside the well-typed fragment the
    strict checkers accept.  Only [=] is folded — on other comparison
    operators incompatible operands are a type error, not a constant.
    Quantifiers are simplified conservatively: [∃v∈R: false] is [false],
    [∀v∈R: true] is [true], but [∃v∈R: true] and [∀v∈R: false] depend on
    whether [R] is empty and are kept as written. *)
let simplify_types (schemas : (string * Diagres_data.Schema.t) list)
    (q : query) : query =
  let module V = Diagres_data.Value in
  let ty scope = function
    | Const c -> Some (V.type_of c)
    | Field (v, a) -> (
      match List.assoc_opt v scope with
      | None -> None
      | Some r -> (
        match List.assoc_opt r schemas with
        | None -> None
        | Some s -> (
          match Diagres_data.Schema.find_opt a s with
          | Some at -> Some at.Diagres_data.Schema.ty
          | None -> None)))
  in
  let rec go scope f =
    match f with
    | True | False -> f
    | Cmp (Diagres_logic.Fol.Eq, a, b) -> (
      match (ty scope a, ty scope b) with
      | Some ta, Some tb when not (V.ty_compatible ta tb) -> False
      | _ -> f)
    | Cmp _ -> f
    | Not g -> (
      match go scope g with True -> False | False -> True | g' -> Not g')
    | And (a, b) -> (
      match (go scope a, go scope b) with
      | False, _ | _, False -> False
      | True, g | g, True -> g
      | a', b' -> And (a', b'))
    | Or (a, b) -> (
      match (go scope a, go scope b) with
      | True, _ | _, True -> True
      | False, g | g, False -> g
      | a', b' -> Or (a', b'))
    | Implies (a, b) -> (
      match (go scope a, go scope b) with
      | False, _ -> True
      | True, g -> g
      | _, True -> True
      | a', b' -> Implies (a', b'))
    | Exists (rs, g) -> (
      match go (rs @ scope) g with False -> False | g' -> Exists (rs, g'))
    | Forall (rs, g) -> (
      match go (rs @ scope) g with True -> True | g' -> Forall (rs, g'))
  in
  { q with body = go q.ranges q.body }

(* -------------------------------------------------------------------- *)
(* Direct evaluation: free ranges enumerate their relations, quantifiers
   range over their declared relations.  Range coupling means no active-
   domain construction is needed — this is the "safe by construction"
   point the tutorial makes about TRC-based diagrams.

   The restricted engine additionally narrows each tuple variable to the
   tuples matching the equality constraints its formula imposes — served
   by a hash-index probe (Relation.matching) instead of a full scan — so
   equi-join-shaped queries run in time proportional to the join result
   rather than the product of the relation sizes.  The naive engine scans
   every relation in full and is kept as the differential-test reference. *)

exception Eval_error of string

(** Typecheck [q] and return its answer header: one attribute per head
    term, named after the field it reads (a name already taken by an
    earlier head field gets the 1-based position as a suffix, [sid_2]) or
    [c<i>] for a constant.  The served route names its planned answer with
    this header too, so both engines print the same columns. *)
let head_schema (schemas : (string * Diagres_data.Schema.t) list) (q : query) :
    Diagres_data.Schema.t =
  let module D = Diagres_data in
  ignore (typecheck schemas q);
  List.mapi
    (fun i t ->
      match t with
      | Field (v, a) ->
        let r = List.assoc v q.ranges in
        let att =
          match D.Schema.find_opt a (List.assoc r schemas) with
          | Some at -> at
          | None -> raise (Eval_error ("unknown field " ^ v ^ "." ^ a))
        in
        let base = att.D.Schema.name in
        let clash =
          List.exists
            (function Field (_, a') -> a' = base | Const _ -> false)
            (List.filteri (fun j _ -> j < i) q.head)
        in
        D.Schema.attr ~ty:att.D.Schema.ty
          (if clash then Printf.sprintf "%s_%d" base (i + 1) else base)
      | Const c ->
        D.Schema.attr ~ty:(D.Value.type_of c) (Printf.sprintf "c%d" (i + 1)))
    q.head

let eval_gen ~restricted (db : Diagres_data.Database.t) (q : query) :
    Diagres_data.Relation.t =
  let module D = Diagres_data in
  let head_schema = head_schema (Diagres_ra.Typecheck.env_of_database db) q in
  let rel r =
    match D.Database.find_opt r db with
    | Some x -> x
    | None -> raise (Eval_error ("unknown relation " ^ r))
  in
  let term_value env = function
    | Const c -> c
    | Field (v, a) ->
      let tup, r = List.assoc v env in
      D.Tuple.field (D.Relation.schema (rel r)) a tup
  in
  let term_value_opt env = function
    | Const c -> Some c
    | Field (v, a) -> (
      match List.assoc_opt v env with
      | Some (tup, r) -> Some (D.Tuple.field (D.Relation.schema (rel r)) a tup)
      | None -> None)
  in
  (* [constraints env v rname f]: equalities [(position, value)] that every
     tuple bound to [v] must satisfy for [f] to hold under [env] — collected
     from conjunctively required comparisons [v.a = t] whose other side is
     evaluable now.  Conjunctively required means reachable through ∧ and
     through ∃ over other variables; never through ¬, →, ∨ or ∀ (a ∀ can be
     vacuously true, so nothing under it is required).  [None] marks
     contradictory equalities: no tuple can satisfy [f]. *)
  let constraints env v rname f =
    let schema = D.Relation.schema (rel rname) in
    let add (i, value) = function
      | None -> None
      | Some cs as acc -> (
        match List.assoc_opt i cs with
        | Some v' -> if D.Value.equal v' value then acc else None
        | None -> Some ((i, value) :: cs))
    in
    let rec go f acc =
      match f with
      | And (a, b) -> go b (go a acc)
      | Exists (rs, g)
        when List.for_all
               (fun (u, _) -> u <> v && not (List.mem_assoc u env))
               rs ->
        go g acc
      | Cmp (Diagres_logic.Fol.Eq, Field (v', a), t) when v' = v -> (
        match term_value_opt env t with
        | Some value -> add (D.Schema.index a schema, value) acc
        | None -> acc)
      | Cmp (Diagres_logic.Fol.Eq, t, Field (v', a)) when v' = v -> (
        match term_value_opt env t with
        | Some value -> add (D.Schema.index a schema, value) acc
        | None -> acc)
      | _ -> acc
    in
    go f (Some [])
  in
  (* candidate tuples for binding [v ∈ rname] given that [f] must then hold *)
  let candidates env v rname f =
    if not restricted then D.Relation.tuples (rel rname)
    else
      match constraints env v rname f with
      | None -> []
      | Some [] -> D.Relation.tuples (rel rname)
      | Some cs ->
        let cs = List.sort (fun (i, _) (j, _) -> compare i j) cs in
        D.Relation.matching (rel rname) (List.map fst cs)
          (Array.of_list (List.map snd cs))
  in
  let rec holds env = function
    | True -> true
    | False -> false
    | Cmp (op, a, b) ->
      Diagres_logic.Fol.cmp_eval op (term_value env a) (term_value env b)
    | Not f -> not (holds env f)
    | And (a, b) -> holds env a && holds env b
    | Or (a, b) -> holds env a || holds env b
    | Implies (a, b) -> (not (holds env a)) || holds env b
    | Exists ([], f) -> holds env f
    | Exists ((v, r) :: rest, f) ->
      List.exists
        (fun tup -> holds ((v, (tup, r)) :: env) (Exists (rest, f)))
        (candidates env v r (Exists (rest, f)))
    | Forall ([], f) -> holds env f
    | Forall ((v, r) :: rest, f) ->
      (* ∀ can only be narrowed through an implication guard: a tuple
         violating an equality required by [g] satisfies [g → h] (and hence
         the whole remaining ∀-block) vacuously, so only the matching tuples
         need checking.  The extracted equalities never mention [rest]
         variables (they are not in [env]), so vacuity holds under every
         binding of [rest]. *)
      let tups =
        if not restricted then D.Relation.tuples (rel r)
        else
          match f with
          | Implies (g, _) | Or (Not g, _) -> candidates env v r g
          | _ -> D.Relation.tuples (rel r)
      in
      List.for_all
        (fun tup -> holds ((v, (tup, r)) :: env) (Forall (rest, f)))
        tups
  in
  (* enumerate assignments to the free ranges, narrowed by the body *)
  let rec enumerate env = function
    | [] -> if holds env q.body then [ List.map (term_value env) q.head ] else []
    | (v, r) :: rest ->
      List.concat_map
        (fun tup -> enumerate ((v, (tup, r)) :: env) rest)
        (candidates env v r q.body)
  in
  if q.head = [] then
    (* Boolean query: nullary relation, nonempty iff the sentence holds *)
    let rows = enumerate [] q.ranges in
    if rows <> [] then D.Relation.of_lists [] [ [] ] else D.Relation.empty []
  else D.Relation.of_lists head_schema (enumerate [] q.ranges)

let eval db q = eval_gen ~restricted:true db q

(** Full-scan reference evaluation: every tuple variable enumerates its
    whole relation.  Used by the differential tests and as the benchmark
    baseline for {!eval}. *)
let eval_naive db q = eval_gen ~restricted:false db q

(** Boolean queries: true iff the (closed) query returns the empty tuple. *)
let eval_sentence db body =
  not (Diagres_data.Relation.is_empty (eval db { head = []; ranges = []; body }))

let eval_sentence_naive db body =
  not
    (Diagres_data.Relation.is_empty
       (eval_naive db { head = []; ranges = []; body }))
