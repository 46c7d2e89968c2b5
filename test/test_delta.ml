(* Incremental view maintenance: differential evaluation over the
   physical plan algebra.

   Coverage:

   - unit tests for the canonical-batch merge set operations (including
     nullary batches and string columns with differing dictionaries) and
     for [Relation.apply_delta] normalization;
   - deterministic retraction tests: projection support counts (a delete
     must not retract an output other inputs still support) and the
     membership-probe rules of the set operations;
   - the plan-sharing regression: a registered view's plan is the same
     object the LRU plan cache serves to ad-hoc [eval_planned] calls,
     whose [Plan.run] resets the per-node memos — maintenance must keep
     working because its state lives with the view, not on plan nodes;
   - views registered from TRC and DRC (catalog q1 and q3), maintained
     through the plans the calculus lowering produces;
   - two-sided join deltas: every join input changes every round, and the
     view-owned side indexes must stay exact without any relation-level
     index build after the first round;
   - bounded state: the plan cache stays flat under a views update loop,
     and the delta-state gauge counts the join side indexes;
   - a randomized insert/delete-stream differential: maintained result ≡
     recomputed ≡ naive, over qgen-generated plans, at 1 and 4 domains
     (overridable via DIAGRES_DOMAINS, which is how CI crosses them), each
     through a columnar plan and a row plan (planned with the
     vectorization threshold out of reach, so the delta filters take the
     row kernels too). *)

module D = Diagres_data
module R = D.Relation
module V = D.Value
module B = D.Batch
module Plan = Diagres_ra.Plan
module Planner = Diagres_ra.Planner
module Plan_cache = Diagres_ra.Plan_cache
module Delta = Diagres_ra.Delta
module Eval = Diagres_ra.Eval
module Views = Diagres.Views
module Languages = Diagres.Languages
module Pool = Diagres_pool.Pool
module Q = Diagres.Qgen

(* Same forcing harness as test_columnar: tiny thresholds so every
   eligible operator — including the ephemeral delta nodes — runs its
   vectorized, multi-batch, pooled paths even on sample-sized inputs. *)
let forcing domains f =
  let old_size = Pool.size () in
  let old_thr = !Plan.par_threshold and old_morsel = !Plan.morsel_size in
  let old_vec = !Plan.vec_threshold and old_batch = !Plan.batch_rows in
  Pool.set_size domains;
  Plan.par_threshold := 0;
  Plan.morsel_size := 3;
  Plan.vec_threshold := 0;
  Plan.batch_rows := 3;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_size old_size;
      Plan.par_threshold := old_thr;
      Plan.morsel_size := old_morsel;
      Plan.vec_threshold := old_vec;
      Plan.batch_rows := old_batch)
    f

(* ------------------------------------------------------------------ *)
(* Canonical-batch merge set operations.                               *)

let ints name vs =
  R.of_lists
    (D.Schema.make [ (name, V.Tint) ])
    (List.map (fun i -> [ V.Int i ]) vs)

let strs name vs =
  R.of_lists
    (D.Schema.make [ (name, V.Tstring) ])
    (List.map (fun s -> [ V.String s ]) vs)

let check_merges a b =
  let check what merge reference =
    let merged = R.of_batch (R.schema a) (merge (R.batch a) (R.batch b)) in
    if not (R.same_rows merged reference) then
      Alcotest.failf "merge %s diverges from row-mode reference" what
  in
  check "union" B.merge_union (R.union a b);
  check "inter" B.merge_inter (R.inter a b);
  check "diff" B.merge_diff (R.diff a b)

let test_merge_setops () =
  check_merges (ints "x" [ 1; 3; 5; 7 ]) (ints "x" [ 2; 3; 7; 9 ]);
  check_merges (ints "x" []) (ints "x" [ 1; 2 ]);
  check_merges (ints "x" [ 1; 2 ]) (ints "x" []);
  (* string columns dictionary-encode per batch: overlapping but unequal
     value sets force the differing-dictionary merge path *)
  check_merges (strs "c" [ "a"; "b"; "c" ]) (strs "c" [ "b"; "d" ]);
  check_merges (strs "c" [ "red"; "blue" ]) (strs "c" [ "green"; "red" ])

let test_merge_nullary () =
  (* nullary relations: the Boolean relation {()} or {} *)
  let t = R.project [] (ints "x" [ 1 ]) and f = R.project [] (ints "x" []) in
  List.iter (fun (a, b) -> check_merges a b) [ (t, t); (t, f); (f, t); (f, f) ]

(* ------------------------------------------------------------------ *)
(* Relation.apply_delta normalization.                                 *)

let test_apply_delta_normalizes () =
  let r = ints "x" [ 1; 2 ] in
  let r', ins, del =
    R.apply_delta ~inserts:(ints "x" [ 2; 3 ]) ~deletes:(ints "x" [ 1; 3; 9 ])
      r
  in
  (* insert 2 is already present; delete 3 loses to the insert, delete 9
     is absent; so: ins = {3}, del = {1}, result = {2, 3} *)
  Alcotest.(check bool) "result" true (R.same_rows r' (ints "x" [ 2; 3 ]));
  Alcotest.(check bool) "ins" true (R.same_rows ins (ints "x" [ 3 ]));
  Alcotest.(check bool) "del" true (R.same_rows del (ints "x" [ 1 ]));
  (* a delta that normalizes to nothing returns the relation itself:
     stamp and caches survive *)
  let r'', _, _ =
    R.apply_delta ~inserts:(ints "x" [ 1 ]) ~deletes:(ints "x" [ 7 ]) r
  in
  Alcotest.(check int) "no-op keeps the stamp" (R.stamp r) (R.stamp r'')

(* ------------------------------------------------------------------ *)
(* Deterministic retraction: projection support, set-op membership.     *)

let row sid name = [ V.Int sid; V.String name ]

let small_s rows =
  R.of_lists (D.Schema.make [ ("sid", V.Tint); ("sname", V.Tstring) ]) rows

let test_project_support_counts () =
  let s = small_s [ row 1 "ann"; row 2 "ann"; row 3 "bob" ] in
  let db = D.Database.of_list [ ("S", s) ] in
  let reg = Views.create db in
  let v =
    Views.register reg ~name:"names" ~lang:Languages.Ra
      ~source:"project[sname](S)"
  in
  let del rows = [ ("S", R.empty (R.schema s), small_s rows) ] in
  (* deleting (1, ann) must NOT retract ann — (2, ann) still supports it *)
  let stats = Views.update reg (del [ row 1 "ann" ]) in
  Alcotest.(check (list (pair int int)))
    "first delete changes nothing"
    [ (0, 0) ]
    (List.map (fun s -> (s.Views.inserts, s.Views.deletes)) stats);
  Alcotest.(check bool) "ann survives" true (Views.verify reg v);
  (* deleting the last support retracts it *)
  let stats = Views.update reg (del [ row 2 "ann" ]) in
  Alcotest.(check (list (pair int int)))
    "last support retracts"
    [ (0, 1) ]
    (List.map (fun s -> (s.Views.inserts, s.Views.deletes)) stats);
  Alcotest.(check bool) "verified" true (Views.verify reg v);
  Alcotest.(check int) "only bob left" 1 (R.cardinality (Views.result v))

let test_union_retraction () =
  let a = ints "x" [ 1; 2 ] and b = ints "x" [ 2; 3 ] in
  let db = D.Database.of_list [ ("A", a); ("B", b) ] in
  let reg = Views.create db in
  let v =
    Views.register reg ~name:"u" ~lang:Languages.Ra ~source:"A union B"
  in
  (* deleting 2 from A alone must not retract it — B still holds it *)
  let stats =
    Views.update reg [ ("A", ints "x" [], ints "x" [ 2 ]) ]
  in
  Alcotest.(check (list (pair int int)))
    "sibling still supports"
    [ (0, 0) ]
    (List.map (fun s -> (s.Views.inserts, s.Views.deletes)) stats);
  (* now delete it from B too *)
  let stats =
    Views.update reg [ ("B", ints "x" [], ints "x" [ 2 ]) ]
  in
  Alcotest.(check (list (pair int int)))
    "now it retracts"
    [ (0, 1) ]
    (List.map (fun s -> (s.Views.inserts, s.Views.deletes)) stats);
  Alcotest.(check bool) "verified" true (Views.verify reg v)

let test_division_view () =
  let db = Testutil.db in
  let reg = Views.create db in
  let v =
    Views.register reg ~name:"all_boats" ~lang:Languages.Ra
      ~source:"project[sid, bid](Reserves) div project[bid](Boat)"
  in
  let res_schema = D.Database.schema_of "Reserves" db in
  let boat_schema = D.Database.schema_of "Boat" db in
  let no_res = R.empty res_schema and no_boat = R.empty boat_schema in
  (* dividend-only delta: a sailor completes the set of boats *)
  let missing =
    R.diff
      (R.product
         (R.project [ "sid" ] (D.Database.find "Sailor" db))
         (R.project [ "bid" ] (D.Database.find "Boat" db)))
      (R.project [ "sid"; "bid" ] (D.Database.find "Reserves" db))
  in
  let some_sid =
    match R.tuples missing with
    | t :: _ -> (match t.(0) with V.Int s -> s | _ -> assert false)
    | [] -> Alcotest.fail "sample instance has a sailor missing a boat"
  in
  let completing =
    R.filter (fun t -> V.compare t.(0) (V.Int some_sid) = 0) missing
  in
  let day t = Array.append t [| V.String "1/1" |] in
  let ins = R.of_tuples res_schema (List.map day (R.tuples completing)) in
  ignore (Views.update reg [ ("Reserves", ins, no_res) ]);
  Alcotest.(check bool) "dividend delta verified" true (Views.verify reg v);
  Alcotest.(check bool)
    "completed sailor appears" true
    (R.mem [| V.Int some_sid |] (Views.result v));
  (* divisor delta: a brand-new boat empties the division again *)
  let new_boat =
    R.of_lists boat_schema [ [ V.Int 999; V.String "Ghost"; V.String "black" ] ]
  in
  ignore (Views.update reg [ ("Boat", new_boat, no_boat) ]);
  Alcotest.(check bool) "divisor delta verified" true (Views.verify reg v);
  Alcotest.(check bool)
    "nobody reserved the new boat" true
    (R.is_empty (Views.result v))

(* ------------------------------------------------------------------ *)
(* The plan-sharing regression (differential state must live with the  *)
(* view, never on plan nodes).                                         *)

let test_plan_cache_sharing () =
  let src = "project[sname](Sailor join Reserves)" in
  let db0 = Testutil.db in
  let reg = Views.create db0 in
  let v = Views.register reg ~name:"v" ~lang:Languages.Ra ~source:src in
  (* an ad-hoc planned evaluation of the same query against the same
     database is served the very same plan object from the LRU cache... *)
  let e =
    match Languages.parse Languages.Ra src with
    | Languages.Q_ra e -> e
    | _ -> assert false
  in
  let plan2, cached = Plan_cache.find_or_plan db0 e in
  Alcotest.(check bool) "plan served from cache" true cached;
  Alcotest.(check bool) "same plan object" true (plan2 == v.Views.plan);
  (* ...and Plan.run resets every per-node memo on it.  Interleave such
     runs with maintenance rounds: the view must stay correct because its
     differential state is its own. *)
  let r = D.Generator.rng 42 in
  for round = 1 to 3 do
    ignore (Plan.run v.Views.plan);
    let changes =
      D.Generator.update_batch ~frac:0.3 r (Views.database reg)
    in
    ignore (Views.update reg changes);
    ignore (Plan.run v.Views.plan);
    if not (Views.verify reg v) then
      Alcotest.failf "round %d: maintained result diverged after Plan.run"
        round;
    let naive = Diagres_ra.Eval.eval (Views.database reg) v.Views.ra in
    if not (R.same_rows naive (Views.result v)) then
      Alcotest.failf "round %d: maintained result diverged from naive" round
  done

(* ------------------------------------------------------------------ *)
(* Views written in a calculus: maintained through the plan their       *)
(* lowering produced — q1 as joins, q3's ∀ as nested anti-joins.        *)

let test_calculus_views () =
  let db = D.Generator.sailors_db_columnar ~n_sailors:300 ~n_boats:6 7 in
  let reg = Views.create db in
  (* each view with its reference: native TRC evaluation of the entry *)
  let views =
    List.concat_map
      (fun id ->
        let e = Diagres.Catalog.find id in
        let reference = Languages.parse Languages.Trc e.Diagres.Catalog.trc in
        List.map
          (fun (lang, source) ->
            let name = id ^ "/" ^ Languages.name lang in
            (Views.register reg ~name ~lang ~source, reference))
          [ (Languages.Trc, e.Diagres.Catalog.trc);
            (Languages.Drc, e.Diagres.Catalog.drc) ])
      [ "q1"; "q3" ]
  in
  let r = D.Generator.rng 7 in
  for round = 1 to 4 do
    let changes = D.Generator.update_batch ~frac:0.05 r (Views.database reg) in
    ignore (Views.update reg changes);
    List.iter
      (fun ((v : Views.view), reference) ->
        if not (Views.verify reg v) then
          Alcotest.failf "round %d: view %s diverged from recomputation" round
            v.Views.name;
        let expected =
          Languages.eval_reference (Views.database reg) reference
        in
        if not (R.same_rows expected (Views.result v)) then
          Alcotest.failf "round %d: view %s diverged from TRC evaluation"
            round v.Views.name;
        if R.is_empty (Views.result v) then
          Alcotest.failf "round %d: view %s is empty; the instance is too thin"
            round v.Views.name)
      views
  done

(* ------------------------------------------------------------------ *)
(* Two-sided join deltas: Sailor, Boat and Reserves all change each     *)
(* round, so both inputs of every join carry a delta.                   *)

let index_builds () =
  Diagres_telemetry.Telemetry.(
    counter_named "index.cache.miss" + counter_named "index.cache.bypass")

let has_residual_join (plan : Plan.t) =
  Plan.fold_unique
    (fun (n : Plan.t) acc ->
      acc
      || match n.Plan.op with
         | Plan.Hash_join { Plan.residual = Some _; _ } -> true
         | _ -> false)
    plan false

let test_two_sided_join_deltas () =
  let db = D.Generator.sailors_db_columnar ~n_sailors:2000 ~n_boats:40 11 in
  let reg = Views.create db in
  let ra name source =
    Views.register reg ~name ~lang:Languages.Ra ~source
  in
  let views =
    [ ra "names" "project[sname](Sailor join Reserves)";
      ra "q1" (Diagres.Catalog.find "q1").Diagres.Catalog.ra;
      ra "q2" (Diagres.Catalog.find "q2").Diagres.Catalog.ra;
      ra "residual" "select[age > bid](Sailor join Reserves)" ]
  in
  let residual = List.nth views 3 in
  Alcotest.(check bool)
    "the residual view plans a hash join with a residual" true
    (has_residual_join residual.Views.plan);
  (* apply through the database first, so the index counters see
     Delta.maintain alone *)
  let round label changes ~check_builds =
    let db', applied = D.Database.apply_delta changes (Views.database reg) in
    reg.Views.db <- db';
    let before = index_builds () in
    List.iter
      (fun (v : Views.view) -> ignore (Delta.maintain v.Views.delta applied))
      views;
    if check_builds && index_builds () <> before then
      Alcotest.failf "%s: maintenance built %d relation-level indexes" label
        (index_builds () - before);
    List.iter
      (fun (v : Views.view) ->
        let expected = Eval.eval db' v.Views.ra in
        if not (R.same_rows expected (Views.result v)) then
          Alcotest.failf "%s: view %s diverged from Eval.eval" label
            v.Views.name)
      views
  in
  let r = D.Generator.rng 11 in
  for i = 1 to 20 do
    round (Printf.sprintf "round %d" i)
      (D.Generator.update_batch ~frac:0.05 r (Views.database reg))
      ~check_builds:(i >= 2)
  done;
  (* hand-built: one Reserves tuple deleted and re-inserted in the same
     batch (a no-op after normalization), plus every reservation of one
     current sailor — a whole join-key bucket — deleted, then restored *)
  let reserves = D.Database.find "Reserves" (Views.database reg) in
  let sailors = D.Database.find "Sailor" (Views.database reg) in
  let res_schema = R.schema reserves in
  let none = R.empty res_schema in
  let kept, bucket_sid =
    let sailing u = R.exists (fun s -> V.compare s.(0) u.(0) = 0) sailors in
    match R.tuples reserves with
    | t :: rest -> (
      match
        List.find_opt (fun u -> V.compare u.(0) t.(0) <> 0 && sailing u) rest
      with
      | Some u -> (t, u.(0))
      | None -> Alcotest.fail "no second sailor holds a reservation")
    | [] -> Alcotest.fail "Reserves is empty"
  in
  let bucket =
    R.filter (fun t -> V.compare t.(0) bucket_sid = 0) reserves
  in
  let readd = R.of_tuples res_schema [ kept ] in
  round "bucket delete"
    [ ("Reserves", readd, R.union readd bucket) ]
    ~check_builds:true;
  Alcotest.(check bool) "the kept tuple survives" true
    (R.mem kept (D.Database.find "Reserves" (Views.database reg)));
  round "bucket restore" [ ("Reserves", bucket, none) ] ~check_builds:true

(* ------------------------------------------------------------------ *)
(* Bounded state.                                                      *)

let test_plan_cache_bounded () =
  Plan_cache.clear ();
  Fun.protect ~finally:Plan_cache.clear @@ fun () ->
  let reg = Views.create (D.Generator.sailors_db ~n_sailors:30 3) in
  let v =
    Views.register reg ~name:"v" ~lang:Languages.Ra
      ~source:"project[sname](Sailor join Reserves)"
  in
  let r = D.Generator.rng 3 in
  for i = 1 to 50 do
    ignore
      (Views.update reg
         (D.Generator.update_batch ~frac:0.2 r (Views.database reg)));
    ignore (Eval.eval_planned (Views.database reg) v.Views.ra);
    if Plan_cache.entries () > 2 then
      Alcotest.failf "round %d: %d plans cached" i (Plan_cache.entries ())
  done

let test_delta_state_gauge () =
  let reg =
    Views.create (D.Generator.sailors_db_columnar ~n_sailors:500 ~n_boats:20 5)
  in
  ignore
    (Views.register reg ~name:"v" ~lang:Languages.Ra
       ~source:"project[sname](Sailor join Reserves)");
  let gauge () =
    Views.refresh_gauges reg;
    Diagres_telemetry.Telemetry.gauge_named "memory_bytes.delta_state"
  in
  let registered = gauge () in
  let r = D.Generator.rng 5 in
  ignore
    (Views.update reg
       (D.Generator.update_batch ~frac:0.01 r (Views.database reg)));
  let maintained = gauge () in
  if maintained <= registered then
    Alcotest.failf "delta state %d B after the first round, %d B before"
      maintained registered

(* ------------------------------------------------------------------ *)
(* Randomized update-stream differential.                              *)

let fuzz_n =
  match Sys.getenv_opt "DIAGRES_FUZZ_N" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 60)
  | None -> 60

let domains_list =
  match Sys.getenv_opt "DIAGRES_DOMAINS" with
  | Some s -> ( try [ max 1 (int_of_string (String.trim s)) ] with _ -> [ 1; 4 ])
  | None -> [ 1; 4 ]

let test_update_stream_differential () =
  let st = Random.State.make [| 0xde17a; 2026 |] in
  let schemas = Testutil.schemas in
  for i = 1 to fuzz_n do
    let e = Q.gen_ra st schemas 3 in
    let seed = 1000 + i in
    List.iter
      (fun domains ->
        List.iter
          (fun columnar ->
            forcing domains (fun () ->
                (* the row leg raises the threshold past every estimate
                   before planning; [forcing] restores it *)
                if not columnar then Plan.vec_threshold := max_int;
                let db =
                  ref
                    (D.Generator.sailors_db ~n_sailors:8 ~n_boats:4
                       ~n_reserves:16 seed)
                in
                let plan = Planner.plan !db e in
                let view = Delta.init plan in
                let r = D.Generator.rng seed in
                for round = 1 to 3 do
                  let changes = D.Generator.update_batch ~frac:0.3 r !db in
                  let db', applied = D.Database.apply_delta changes !db in
                  db := db';
                  let rep = Delta.maintain view applied in
                  let naive = Eval.eval !db e in
                  if not (R.same_rows naive rep.Delta.result) then
                    Alcotest.failf
                      "#%d round %d (%d domains, columnar=%b): maintained \
                       diverges from naive:\n\
                       %s"
                      i round domains columnar (Diagres_ra.Pretty.ascii e)
                done)
              )
          [ true; false ])
      domains_list
  done

let () =
  Alcotest.run "delta"
    [ ( "batch-merge",
        [ Alcotest.test_case "merge set-ops = row reference" `Quick
            test_merge_setops;
          Alcotest.test_case "nullary merges" `Quick test_merge_nullary ] );
      ( "apply-delta",
        [ Alcotest.test_case "normalization" `Quick
            test_apply_delta_normalizes ] );
      ( "retraction",
        [ Alcotest.test_case "projection support counts" `Quick
            test_project_support_counts;
          Alcotest.test_case "union membership probes" `Quick
            test_union_retraction;
          Alcotest.test_case "division dividend/divisor deltas" `Quick
            test_division_view ] );
      ( "plan-sharing",
        [ Alcotest.test_case "maintenance survives ad-hoc Plan.run" `Quick
            test_plan_cache_sharing ] );
      ( "calculus",
        [ Alcotest.test_case "q1/q3 views from TRC and DRC" `Quick
            test_calculus_views ] );
      ( "two-sided",
        [ Alcotest.test_case "join deltas on both inputs" `Quick
            test_two_sided_join_deltas ] );
      ( "bounded",
        [ Alcotest.test_case "plan cache under a views loop" `Quick
            test_plan_cache_bounded;
          Alcotest.test_case "gauge counts side indexes" `Quick
            test_delta_state_gauge ] );
      ( "differential",
        [ Alcotest.test_case "update streams: maintained = naive" `Slow
            test_update_stream_differential ] ) ]
