(** DRC → RA by range-restricted, context-passing translation (the
    safe-range construction of Van Gelder & Topor, TODS 1991).

    A variable ranges over the relation that guards it, not over the active
    domain.  The translation [trans C φ] works relative to a context C, an
    RA expression whose columns are the variables bound so far, and returns
    C ⋈ {free(φ) | φ} over cols(C) ∪ free(φ):

    - an atom joins into the context;
    - a comparison whose variables are bound is a selection, and ¬cmp is a
      selection on the negated predicate;
    - ∧ folds its conjuncts through the context: bound comparisons first,
      then generators (atoms, ∃), then equalities that copy a bound column,
      then disjunctions and negations;
    - φ ∨ ψ is T(C,φ) ∪ T(C,ψ);
    - ¬φ is the anti-join C − π_{cols C}(T(C,φ));
    - ∃x φ projects x away.

    Only a variable that nothing binds is widened with the active-domain
    relation {!adom}; for unsafe queries the result is therefore still the
    active-domain reading — the semantic subtlety the tutorial discusses for
    Peirce's beta graphs.  A variable that only a constant binds ([y = 'k'])
    is the exception: RA has no literal relation, and the active domain need
    not hold the constant.  {!lower} answers it as a literal column when the
    constant is fixed for every answer; anywhere else it is refused.

    The formula is normalized first: ¬ is pushed through ∨, ⇒, ¬¬ and ∀, so
    that ∀x̄(R(x̄) ⇒ φ) becomes ¬∃x̄(R(x̄) ∧ ¬φ) with its guard a positive
    conjunct; bound variables are renamed apart so a context column never
    clashes with a quantifier; an ∃-block solves y = t for its own variable
    y by substitution, so correlations such as [r.sid = s.sid] become
    shared columns (natural joins); and quantifiers are miniscoped. *)

module A = Diagres_ra.Ast
module F = Diagres_logic.Fol

exception Unsupported of string

(** The active-domain relation with a single column named [x]:
    ⋃_R ⋃_a ρ[a→x](π[a](R)). *)
let adom schemas x : A.t =
  let pieces =
    List.concat_map
      (fun (r, schema) ->
        List.map
          (fun a ->
            let p = A.Project ([ a ], A.Rel r) in
            if a = x then p else A.Rename ([ (a, x) ], p))
          (Diagres_data.Schema.names schema))
      schemas
  in
  match pieces with
  | [] -> raise (Unsupported "empty database schema: no active domain")
  | p :: ps -> List.fold_left (fun acc q -> A.Union (acc, q)) p ps

(* ¬ pushed through ∨, ⇒, ¬¬ and ∀ (∀x φ ≡ ¬∃x ¬φ); it stays on atoms,
   comparisons, conjunctions and ∃ — the shapes [trans] turns into
   selections and anti-joins. *)
let rec prepare (f : F.t) : F.t =
  match f with
  | F.True | F.False | F.Pred _ | F.Cmp _ -> f
  | F.Not g -> negate g
  | F.And (a, b) -> F.And (prepare a, prepare b)
  | F.Or (a, b) -> F.Or (prepare a, prepare b)
  | F.Implies (a, b) -> F.Or (negate a, prepare b)
  | F.Exists (x, g) -> F.Exists (x, prepare g)
  | F.Forall (x, g) -> F.Not (F.Exists (x, negate g))

(* prepare (¬f) *)
and negate (f : F.t) : F.t =
  match f with
  | F.True -> F.False
  | F.False -> F.True
  | F.Not g -> prepare g
  | F.Or (a, b) -> F.And (negate a, negate b)
  | F.Implies (a, b) -> F.And (prepare a, negate b)
  | F.Forall (x, g) -> F.Exists (x, negate g)
  | F.Pred _ | F.Cmp _ | F.And _ | F.Exists _ -> F.Not (prepare f)

(* Rename every bound variable apart from the free variables and from the
   other binders.  Fresh names avoid every name in the formula, so the
   substitution cannot be captured. *)
let rename_apart (f : F.t) : F.t =
  let taken = Hashtbl.create 16 and seen = Hashtbl.create 16 in
  let take x = Hashtbl.replace taken x () in
  let rec collect = function
    | F.True | F.False -> ()
    | F.Pred (_, ts) -> List.iter (fun t -> List.iter take (F.term_vars t)) ts
    | F.Cmp (_, a, b) -> List.iter take (F.term_vars a @ F.term_vars b)
    | F.Not g -> collect g
    | F.And (a, b) | F.Or (a, b) | F.Implies (a, b) -> collect a; collect b
    | F.Exists (x, g) | F.Forall (x, g) -> take x; collect g
  in
  collect f;
  List.iter (fun x -> Hashtbl.replace seen x ()) (F.free_vars f);
  let rec fresh x i =
    let c = Printf.sprintf "%s_%d" x i in
    if Hashtbl.mem taken c then fresh x (i + 1) else (take c; c)
  in
  let binder x g =
    if Hashtbl.mem seen x then begin
      let x' = fresh x 1 in
      Hashtbl.replace seen x' ();
      (x', F.subst x (F.Var x') g)
    end
    else (Hashtbl.replace seen x (); (x, g))
  in
  let rec go (f : F.t) : F.t =
    match f with
    | F.True | F.False | F.Pred _ | F.Cmp _ -> f
    | F.Not g -> F.Not (go g)
    | F.And (a, b) -> F.And (go a, go b)
    | F.Or (a, b) -> F.Or (go a, go b)
    | F.Implies (a, b) -> F.Implies (go a, go b)
    | F.Exists (x, g) -> let x, g = binder x g in F.Exists (x, go g)
    | F.Forall (x, g) -> let x, g = binder x g in F.Forall (x, go g)
  in
  go f

let rec conjuncts = function
  | F.And (a, b) -> conjuncts a @ conjuncts b
  | g -> [ g ]

(* Normalize every ∃-block ∃x̄(g₁ ∧ … ∧ gₙ) in three steps.  An equality
   y = t with y ∈ x̄ is solved by substituting t for y, so correlations
   such as [r.sid = s.sid] become shared columns; a solution that would
   lose a free variable (∃y (x = y) alone) is not taken.  A variable only
   one conjunct mentions is quantified on that conjunct alone (so an atom's
   unused columns are projected away at the atom), and a conjunct that
   mentions none of the remaining block variables moves out of the block.
   Needs bound variables renamed apart. *)
let rec blocks (f : F.t) : F.t =
  match f with
  | F.True | F.False | F.Pred _ | F.Cmp _ -> f
  | F.Not g -> F.Not (blocks g)
  | F.And (a, b) -> F.And (blocks a, blocks b)
  | F.Or (a, b) -> F.Or (blocks a, blocks b)
  | F.Implies _ | F.Forall _ -> invalid_arg "blocks: formula not prepared"
  | F.Exists _ ->
    let rec block xs = function
      | F.Exists (x, g) -> block (x :: xs) g
      | g -> (List.rev xs, g)
    in
    let xs, body = block [] f in
    let solvable xs y t = List.mem y xs && t <> F.Var y in
    let equation xs = function
      | F.Cmp (F.Eq, F.Var y, t) when solvable xs y t -> Some (y, t)
      | F.Cmp (F.Eq, t, F.Var y) when solvable xs y t -> Some (y, t)
      | _ -> None
    in
    let rec elim xs seen = function
      | [] -> (xs, List.rev seen)
      | g :: rest -> (
        match equation xs g with
        | Some (y, t) ->
          let sub = F.subst y t in
          elim
            (List.filter (( <> ) y) xs)
            (List.map sub seen) (List.map sub rest)
        | None -> elim xs (g :: seen) rest)
    in
    let xs, gs =
      let xs', gs' = elim xs [] (conjuncts body) in
      let solved = F.exists_many xs' (F.conj gs') in
      if F.free_var_list solved = F.free_var_list f then (xs', gs')
      else (xs, conjuncts body)
    in
    let gs = List.concat_map (fun g -> conjuncts (blocks g)) gs in
    let mentions x g = List.mem x (F.free_vars g) in
    let kept, gs =
      List.fold_left
        (fun (kept, gs) x ->
          match List.filter (mentions x) gs with
          | [] -> (kept, gs)
          | [ _ ] ->
            let wrap g = if mentions x g then F.Exists (x, g) else g in
            (kept, List.map wrap gs)
          | _ -> (x :: kept, gs))
        ([], gs) (List.rev xs)
    in
    let inner, outer =
      List.partition (fun g -> List.exists (fun x -> mentions x g) kept) gs
    in
    let block = if inner = [] then [] else [ F.exists_many kept (F.conj inner) ] in
    F.conj (outer @ block)

(** Translate an atom R(t₁,…,tₖ): select positions carrying constants or
    repeated variables, project one representative position per variable,
    and rename to the variable names. *)
let atom schemas (p : string) (ts : F.term list) : A.t * string list =
  let schema =
    match List.assoc_opt p schemas with
    | Some s -> s
    | None -> raise (Unsupported ("unknown relation " ^ p))
  in
  let attrs = Diagres_data.Schema.names schema in
  if List.length attrs <> List.length ts then
    raise (Unsupported ("arity mismatch for " ^ p));
  let paired = List.combine attrs ts in
  (* selection conditions *)
  let conds =
    List.concat_map
      (fun (a, t) ->
        match t with
        | F.Const c -> [ A.Cmp (F.Eq, A.Attr a, A.Const c) ]
        | F.Var _ -> [])
      paired
  in
  (* first attribute position for each variable; equality among repeats *)
  let var_repr = Hashtbl.create 8 in
  let eq_conds =
    List.concat_map
      (fun (a, t) ->
        match t with
        | F.Var x -> (
          match Hashtbl.find_opt var_repr x with
          | None ->
            Hashtbl.add var_repr x a;
            []
          | Some a0 -> [ A.Cmp (F.Eq, A.Attr a0, A.Attr a) ])
        | F.Const _ -> [])
      paired
  in
  let vars =
    List.filter_map
      (fun (a, t) ->
        match t with
        | F.Var x when Hashtbl.find_opt var_repr x = Some a -> Some (a, x)
        | _ -> None)
      paired
  in
  let selected =
    match A.pred_conj (conds @ eq_conds) with
    | A.Ptrue -> A.Rel p
    | cond -> A.Select (cond, A.Rel p)
  in
  let projected =
    if List.map fst vars = attrs then selected
    else A.Project (List.map fst vars, selected)
  in
  let renames = List.filter (fun (a, x) -> a <> x) vars in
  let out = if renames = [] then projected else A.Rename (renames, projected) in
  (out, List.map snd vars)

(* Fold True/False through connectives so [trans] never sees closed
   constants except at top level. *)
let rec simplify (f : F.t) : F.t =
  match f with
  | F.True | F.False | F.Pred _ -> f
  | F.Cmp (op, F.Const a, F.Const b) ->
    if F.cmp_eval op a b then F.True else F.False
  | F.Cmp _ -> f
  | F.Not g -> (
    match simplify g with F.True -> F.False | F.False -> F.True | h -> F.Not h)
  | F.And (a, b) -> (
    match (simplify a, simplify b) with
    | F.False, _ | _, F.False -> F.False
    | F.True, h | h, F.True -> h
    | a', b' -> F.And (a', b'))
  | F.Or (a, b) -> (
    match (simplify a, simplify b) with
    | F.True, _ | _, F.True -> F.True
    | F.False, h | h, F.False -> h
    | a', b' -> F.Or (a', b'))
  | F.Exists (x, g) -> (
    match simplify g with
    | F.False -> F.False
    | h -> F.Exists (x, h))
  | F.Forall (x, g) -> (
    match simplify g with F.True -> F.True | h -> F.Forall (x, h))
  | F.Implies (a, b) -> F.Implies (simplify a, simplify b)

(* A context: the RA expression and its columns, in schema order.  [None]
   is the nullary unit, the context of a whole query. *)
type ctx = (A.t * string list) option

let cols_of : ctx -> string list = function None -> [] | Some (_, cs) -> cs

let diff_vars xs ys = List.filter (fun x -> not (List.mem x ys)) xs

(* The nullary unit: nonempty exactly when the database is, matching the
   active-domain reading of a closed negation. *)
let unit_rel schemas = A.Project ([], adom schemas "x")

let ctx_or_unit schemas : ctx -> A.t * string list = function
  | Some c -> c
  | None -> (unit_rel schemas, [])

(* π[xs] e, folding a projection cascade *)
let project xs = function
  | A.Project (_, e) -> A.Project (xs, e)
  | e -> A.Project (xs, e)

let align (e, cols) want = if cols = want then e else project want e

let join_ctx (ctx : ctx) (e, cols) =
  match ctx with
  | None -> (e, cols)
  | Some (ec, cc) -> (A.Join (ec, e), cc @ diff_vars cols cc)

(* The context widened with an active-domain column for each variable of
   [xs] it does not bind. *)
let widen schemas (ctx : ctx) xs =
  let missing = List.sort_uniq String.compare (diff_vars xs (cols_of ctx)) in
  let widened =
    List.fold_left
      (fun acc x ->
        match acc with
        | None -> Some (adom schemas x, [ x ])
        | Some (e, cs) -> Some (A.Product (e, adom schemas x), cs @ [ x ]))
      ctx missing
  in
  ctx_or_unit schemas widened

let operand = function F.Var v -> A.Attr v | F.Const c -> A.Const c

let filter_pred = function
  | F.Cmp (op, a, b) -> Some (A.Cmp (op, operand a, operand b))
  | F.Not (F.Cmp (op, a, b)) -> Some (A.Not (A.Cmp (op, operand a, operand b)))
  | _ -> None

(* Variables a formula binds on its own, through its positive atoms. *)
let rec ranged (f : F.t) =
  match f with
  | F.Pred (_, ts) -> List.concat_map F.term_vars ts
  | F.And (a, b) -> ranged a @ ranged b
  | F.Or (a, b) ->
    let rb = ranged b in
    List.filter (fun x -> List.mem x rb) (ranged a)
  | F.Exists (x, g) -> List.filter (( <> ) x) (ranged g)
  | _ -> []

(** [trans schemas ctx φ] is C ⋈ {free(φ) | φ} over [cols C @ new vars]
    (see the module doc).  Expects a prepared, renamed-apart formula. *)
let rec trans schemas (ctx : ctx) (f : F.t) : A.t * string list =
  match f with
  | F.True -> ctx_or_unit schemas ctx
  | F.False ->
    let e, cols = ctx_or_unit schemas ctx in
    (A.Empty e, cols)
  | F.Pred (p, ts) ->
    let e, cols = atom schemas p ts in
    join_ctx ctx (e, cols)
  | F.Cmp (F.Eq, F.Var y, F.Const c) | F.Cmp (F.Eq, F.Const c, F.Var y)
    when not (List.mem y (cols_of ctx)) ->
    raise
      (Unsupported
         (Printf.sprintf
            "%s is bound only by the constant %s, and RA has no literal \
             relation to range it over"
            y (Diagres_data.Value.to_literal c)))
  | F.Cmp _ | F.Not (F.Cmp _) ->
    let e, cols = widen schemas ctx (F.free_vars f) in
    (A.Select (Option.get (filter_pred f), e), cols)
  | F.Not g ->
    let ((ec, cc) as c) = widen schemas ctx (F.free_vars g) in
    (A.Diff (ec, align (trans schemas (Some c) g) cc), cc)
  | F.And _ -> conj schemas ctx (conjuncts f)
  | F.Or (a, b) ->
    let want =
      cols_of ctx
      @ List.sort_uniq String.compare (diff_vars (F.free_vars f) (cols_of ctx))
    in
    let branch g = align (widen schemas (Some (trans schemas ctx g)) want) want in
    (A.Union (branch a, branch b), want)
  | F.Exists (x, g) -> (
    let bound = cols_of ctx in
    let shares = List.exists (fun y -> List.mem y bound) (F.free_vars f) in
    match ctx with
    | Some _ when not shares ->
      (* uncorrelated: translate on its own, then join in *)
      join_ctx ctx (trans schemas None f)
    | _ ->
      let e, cols = trans schemas ctx g in
      if List.mem x cols then
        let rest = List.filter (( <> ) x) cols in
        (project rest e, rest)
      else (e, cols))
  | F.Implies _ | F.Forall _ ->
    invalid_arg "trans: formula not prepared (Implies/Forall remain)"

(* Fold conjuncts through the context, cheapest and most binding first. *)
and conj schemas (ctx : ctx) (gs : F.t list) =
  match gs with
  | [] -> ctx_or_unit schemas ctx
  | _ ->
    let bound = cols_of ctx in
    let is_bound x = List.mem x bound in
    let covered g = List.for_all is_bound (F.free_vars g) in
    (* x = y with y bound and x not: x ranges over y's column *)
    let copies x y = is_bound y && not (is_bound x) in
    let copy = function
      | F.Cmp (F.Eq, F.Var x, F.Var y) when copies x y -> Some (x, y)
      | F.Cmp (F.Eq, F.Var y, F.Var x) when copies x y -> Some (x, y)
      | _ -> None
    in
    let self_ranged g =
      let r = ranged g in
      List.for_all (fun x -> is_bound x || List.mem x r) (F.free_vars g)
    in
    let rank g =
      match g with
      | _ when filter_pred g <> None && covered g -> 0
      | F.Pred _ -> 1
      | F.Exists _ when self_ranged g -> 2
      | _ when copy g <> None -> 3
      | (F.Not _ | F.Or _) when covered g -> 4
      | F.Or _ when self_ranged g -> 5
      | F.Exists _ | F.Or _ -> 6
      | _ -> 7
    in
    let best =
      List.fold_left
        (fun b g -> if rank g < rank b then g else b)
        (List.hd gs) gs
    in
    let rest = List.filter (fun g -> g != best) gs in
    let ctx' =
      match (copy best, ctx) with
      | Some (x, y), Some (ec, cc) ->
        let column = A.Rename ([ (y, x) ], A.Project ([ y ], ec)) in
        let eq = A.Cmp (F.Eq, A.Attr x, A.Attr y) in
        (A.Select (eq, A.Join (ec, column)), cc @ [ x ])
      | _ -> trans schemas ctx best
    in
    conj schemas (Some ctx') rest

(** An answer column of a lowered query: the [i]-th column of the RA
    result, or a constant. *)
type column = Col of int | Lit of Diagres_data.Value.t

(* The constant [f] forces on the free variable [y] in every model: [y = c]
   in a conjunct, in both disjuncts alike, or under another variable's ∃. *)
let rec forced y (f : F.t) =
  match f with
  | F.Cmp (F.Eq, F.Var x, F.Const c) | F.Cmp (F.Eq, F.Const c, F.Var x)
    when x = y ->
    Some c
  | F.And (a, b) -> (
    match forced y a with None -> forced y b | c -> c)
  | F.Or (a, b) -> (
    match (forced y a, forced y b) with
    | Some c, Some d when c = d -> Some c
    | _ -> None)
  | F.Exists (x, g) when x <> y -> forced y g
  | _ -> None

(** Translate a DRC query into RA, with the answer's columns in head
    order.  A head variable that no atom ranges but a constant fixes —
    [y = 'k'], also through a Datalog rule head or a TRC head constant —
    is substituted away and answered as a {!Lit} column; every other head
    variable is a column of the RA result, in head order. *)
let lower schemas (q : Drc.query) : A.t * column list =
  Drc.typecheck schemas q;
  let body = simplify q.Drc.body in
  let lits =
    List.filter_map
      (fun y ->
        if List.mem y (ranged body) then None
        else Option.map (fun c -> (y, c)) (forced y body))
      q.Drc.head
  in
  let head = List.filter (fun y -> not (List.mem_assoc y lits)) q.Drc.head in
  let body =
    simplify
      (List.fold_left (fun f (y, c) -> F.subst y (F.Const c) f) body lits)
  in
  let e =
    match body with
    | (F.True | F.False) when lits = [] || head <> [] ->
      raise
        (Unsupported "query body is a closed constant; nothing to translate")
    | body ->
      let body = rename_apart (prepare body) in
      let body =
        (* solving can fold the whole body to a constant, which has no
           columns to answer with: translate it unsolved then *)
        match simplify (blocks body) with
        | F.True | F.False -> body
        | solved -> solved
      in
      align (trans schemas None body) head
  in
  ( e,
    List.map
      (fun y ->
        match List.assoc_opt y lits with
        | Some c -> Lit c
        | None -> Col (Option.get (List.find_index (( = ) y) head)))
      q.Drc.head )

(** Whether a lowered query answers with its RA result's rows as they are
    (no {!Lit}: then its columns are [Col 0], [Col 1], … in order). *)
let plain = List.for_all (function Col _ -> true | Lit _ -> false)

(** The RA expression of a lowered query whose answer is its rows as they
    are; a literal answer column has no RA counterpart. *)
let exact ((e, cols) : A.t * column list) : A.t =
  if plain cols then e
  else
    raise
      (Unsupported
         "a constant answer column has no RA counterpart (no literal \
          relation)")

(** Translate a DRC query into RA.  The result's columns follow the query
    head order. *)
let query schemas (q : Drc.query) : A.t = exact (lower schemas q)
