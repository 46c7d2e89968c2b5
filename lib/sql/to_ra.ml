(** SQL → RA: SELECT blocks go through TRC ({!To_trc}) and the calculus
    translation ({!Diagres_rc.Drc_to_ra}); set operators map natively onto
    ∪ / ∩ / −. *)

module A = Diagres_ra.Ast
module L = Diagres_rc.Drc_to_ra

(** The RA expression and the answer's columns ({!L.lower}).  Both sides
    of a set operator must answer with the same columns: a literal column
    has to carry the same constant on both (sides of different arity are
    left to the typechecker). *)
let rec lower schemas (st : Ast.statement) : A.t * L.column list =
  let set op a b =
    let ea, ca = lower schemas a and eb, cb = lower schemas b in
    if List.length ca = List.length cb && ca <> cb then
      raise
        (L.Unsupported
           "a set operator whose sides answer different literal columns");
    (op ea eb, ca)
  in
  match st with
  | Ast.Query q ->
    L.lower schemas
      (Diagres_rc.Trc_to_drc.query schemas (To_trc.of_query schemas q))
  | Ast.Union (a, b) -> set A.union a b
  | Ast.Intersect (a, b) -> set (fun a b -> A.Inter (a, b)) a b
  | Ast.Except (a, b) -> set A.diff a b

let statement schemas st = L.exact (lower schemas st)
