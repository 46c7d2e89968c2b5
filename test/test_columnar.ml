(* Columnar substrate + vectorized operators.

   Three layers of coverage:

   - unit tests for the storage pieces: dictionary encoding roundtrips
     (sorted codes, so code order = string order), the word-bitmap
     kernels (blocked comparison fillers, wand/wor/wnot, popcount,
     word-skipping selection vectors) checked bit-for-bit against the
     row semantics at unaligned offsets and lengths, the scratch pool,
     batch canonicalization, deferred selection views, and the columnar
     statistics fast path;

   - vectorized division (sorted-group merge) against the reference
     evaluator, including the empty-divisor caveat and a nullary
     quotient;

   - a qgen-driven 500-query differential: for each generated well-typed
     RA query, the vectorized planned evaluator, the row-kernel planned
     evaluator (planned with the vectorization threshold out of reach),
     and the naive tree-walking evaluator must agree — at 1 and at 4
     domains, so the batched kernels also run through the domain pool. *)

module D = Diagres_data
module C = D.Column
module V = D.Value
module F = Diagres_logic.Fol
module Plan = Diagres_ra.Plan
module Planner = Diagres_ra.Planner
module Pool = Diagres_pool.Pool
module T = Diagres_telemetry.Telemetry
module Q = Diagres.Qgen

let db = Testutil.db
let schemas = Testutil.schemas

(* Run [f] with the pool at [domains] and the vectorized operators forced
   on tiny inputs: [vec_threshold = 0] marks every filter/project/join
   vectorized, [batch_rows = 3] forces multi-batch execution on the sample
   relations (the filter rounds it up to one 63-row word per batch), and
   [par_threshold = 0] routes the batches through the pool. *)
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

(* The row leg: planned with the vectorization threshold out of reach, so
   no node is marked [vec] and every operator runs its row kernel.  Call
   inside [forcing], which restores the threshold. *)
let row_plan e =
  Plan.vec_threshold := max_int;
  Planner.plan db e

(* One query through both physical paths at [domains]: the columnar leg
   (every eligible operator forced vectorized) and the row leg.  The third
   component holds when the row leg left [columnar.rows] unmoved — only a
   vectorized kernel bumps it, so a row plan that vectorized by mistake
   shows up here. *)
let both_legs domains e =
  forcing domains (fun () ->
      let columnar = Plan.run (Planner.plan db e) in
      let rows0 = T.counter_named "columnar.rows" in
      let row = Plan.run (row_plan e) in
      (columnar, row, T.counter_named "columnar.rows" = rows0))

(* ------------------------------------------------------------------ *)
(* Columns: dictionary encoding.                                       *)

let test_dict_roundtrip () =
  let strings = [| "red"; "green"; "red"; "blue"; "green"; "red" |] in
  let vs = Array.map (fun s -> V.String s) strings in
  let col = C.of_values vs in
  (match col with
  | C.Codes (codes, d) ->
    (* decode = identity *)
    Array.iteri
      (fun i s ->
        Alcotest.(check string) "decode" s
          (match C.get col i with V.String s' -> s' | _ -> "?"))
      strings;
    (* the dictionary is sorted, so code order is string order *)
    Alcotest.(check (list string)) "sorted dictionary"
      [ "blue"; "green"; "red" ]
      (Array.to_list d.C.values);
    for i = 0 to Array.length strings - 1 do
      for j = 0 to Array.length strings - 1 do
        let by_code = compare codes.{i} codes.{j}
        and by_string = String.compare strings.(i) strings.(j) in
        if compare by_code 0 <> compare by_string 0 then
          Alcotest.failf "code order disagrees at (%d, %d)" i j
      done
    done
  | _ -> Alcotest.fail "string column did not dictionary-encode");
  Alcotest.(check int) "distinct off the dictionary" 3 (C.distinct_count col)

(* run a const-comparison filler over [lo, lo+len) and return the
   selected absolute rows *)
let run_const col op c ~lo ~len =
  match C.fill_cmp_const op col c with
  | None -> Alcotest.fail "expected a typed kernel"
  | Some f ->
    let bits = Array.make (max 1 (C.words_for len)) 0 in
    f ~lo ~len bits;
    Array.to_list (C.sel_of_bits bits ~lo ~len)

let test_dict_ordered_const () =
  (* ordered comparisons against constants absent from the dictionary *)
  let col =
    C.of_values (Array.map (fun s -> V.String s) [| "b"; "d"; "f" |])
  in
  let run op c = run_const col op (V.String c) ~lo:0 ~len:3 in
  Alcotest.(check (list int)) "< c (absent)" [ 0 ] (run C.Clt "c");
  Alcotest.(check (list int)) "<= d (present)" [ 0; 1 ] (run C.Cle "d");
  Alcotest.(check (list int)) "> d (present)" [ 2 ] (run C.Cgt "d");
  Alcotest.(check (list int)) ">= e (absent)" [ 2 ] (run C.Cge "e");
  Alcotest.(check (list int)) "= e (absent)" [] (run C.Ceq "e");
  Alcotest.(check (list int)) "<> d" [ 0; 2 ] (run C.Cneq "d")

(* ------------------------------------------------------------------ *)
(* Word-bitmap kernels vs the row semantics.                           *)

let all_ops = [ C.Clt; C.Cle; C.Ceq; C.Cneq; C.Cge; C.Cgt ]

let fol_of : C.cmp -> F.cmp = function
  | C.Ceq -> F.Eq
  | C.Cneq -> F.Neq
  | C.Clt -> F.Lt
  | C.Cle -> F.Le
  | C.Cgt -> F.Gt
  | C.Cge -> F.Ge

(* Windows that exercise word alignment: full array (not a multiple of
   63), exactly one word, straddling a word boundary at an unaligned lo,
   a short tail, an empty range, and a 63-aligned interior word. *)
let windows n =
  [ (0, n); (0, min n 63); (5, min (n - 5) 70); (n - 4, 4); (5, 0);
    (63, min (n - 63) 63) ]

(* The specification: bit k of the filled window is set iff the decoded
   row [lo + k] satisfies [Fol.cmp_eval op row const] — the exact
   semantics the row evaluator and the generic fallback use. *)
let check_against_rows name col op (c : V.t) =
  let n = C.length col in
  List.iter
    (fun (lo, len) ->
      let got = run_const col op c ~lo ~len in
      let expected = ref [] in
      for i = lo + len - 1 downto lo do
        if F.cmp_eval (fol_of op) (C.get col i) c then
          expected := i :: !expected
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "%s lo=%d len=%d" name lo len)
        !expected got)
    (windows n)

let test_int_kernel_vs_rows () =
  (* 130 rows: not a multiple of 63, spans three words *)
  let col =
    C.of_values (Array.init 130 (fun i -> V.Int ((i * 7 mod 29) - 11)))
  in
  List.iter
    (fun op ->
      List.iter
        (fun c -> check_against_rows "int" col op (V.Int c))
        [ -11; 0; 5; 99 ])
    all_ops

let test_float_kernel_vs_rows () =
  (* nan rows must follow the Value.compare total order (nan lowest),
     which the native-comparison fast paths emulate by negation *)
  let specials = [| Float.nan; Float.neg_infinity; -1.5; 0.; 2.5; Float.infinity |] in
  let col =
    C.of_values (Array.init 130 (fun i -> V.Float specials.(i mod 6)))
  in
  List.iter
    (fun op ->
      List.iter
        (fun c -> check_against_rows "float" col op (V.Float c))
        [ 0.; 2.5; Float.nan; Float.neg_infinity ])
    all_ops

let test_cols_kernel_vs_rows () =
  let a = C.of_values (Array.init 130 (fun i -> V.Int (i mod 7)))
  and b = C.of_values (Array.init 130 (fun i -> V.Int ((i * 3) mod 7))) in
  List.iter
    (fun op ->
      match C.fill_cmp_cols op a b with
      | None -> Alcotest.fail "int col-col kernel missing"
      | Some f ->
        List.iter
          (fun (lo, len) ->
            let bits = Array.make (max 1 (C.words_for len)) 0 in
            f ~lo ~len bits;
            let got = Array.to_list (C.sel_of_bits bits ~lo ~len) in
            let expected = ref [] in
            for i = lo + len - 1 downto lo do
              if F.cmp_eval (fol_of op) (C.get a i) (C.get b i) then
                expected := i :: !expected
            done;
            Alcotest.(check (list int))
              (Printf.sprintf "cols lo=%d len=%d" lo len)
              !expected got)
          (windows 130))
    all_ops

let test_word_combiners () =
  (* wand / wor / wnot against per-row boolean algebra, on a length that
     ends mid-word so the wnot tail re-mask is exercised *)
  let n = 130 in
  let p i = i mod 3 = 0 and q i = i mod 5 <> 1 in
  let fill pred =
    let bits = Array.make (C.words_for n) 0 in
    (C.fill_with (fun i -> pred i)) ~lo:0 ~len:n bits;
    bits
  in
  let sel bits = Array.to_list (C.sel_of_bits bits ~lo:0 ~len:n) in
  let expect pred =
    List.filter pred (List.init n Fun.id)
  in
  let band = fill p in
  C.wand band (fill q) (C.words_for n);
  Alcotest.(check (list int)) "wand" (expect (fun i -> p i && q i)) (sel band);
  let bor = fill p in
  C.wor bor (fill q) (C.words_for n);
  Alcotest.(check (list int)) "wor" (expect (fun i -> p i || q i)) (sel bor);
  let bnot = fill p in
  C.wnot bnot ~len:n;
  Alcotest.(check (list int)) "wnot" (expect (fun i -> not (p i))) (sel bnot);
  (* the phantom-bits-zero invariant survives complement: counts add up *)
  Alcotest.(check int) "wnot count"
    (n - C.count_bits (fill p) ~len:n)
    (C.count_bits bnot ~len:n)

let test_popcount () =
  Alcotest.(check int) "0" 0 (C.popcount 0);
  Alcotest.(check int) "full word" 63 (C.popcount C.full_word);
  Alcotest.(check int) "sign bit" 1 (C.popcount min_int);
  Alcotest.(check int) "one" 1 (C.popcount 1);
  let naive x =
    let n = ref 0 and x = ref x in
    while !x <> 0 do
      n := !n + (!x land 1);
      x := !x lsr 1
    done;
    !n
  in
  let st = Random.State.make [| 0xbeef |] in
  for _ = 1 to 1000 do
    let x = Random.State.bits64 st |> Int64.to_int in
    Alcotest.(check int) "random word" (naive x) (C.popcount x)
  done

let test_selection_edges () =
  let col = C.of_values (Array.map (fun i -> V.Int i) [| 1; 2; 3; 4; 5 |]) in
  let sel op c = run_const col op (V.Int c) ~lo:0 ~len:5 in
  Alcotest.(check (list int)) "empty" [] (sel C.Cgt 99);
  Alcotest.(check (list int)) "full" [ 0; 1; 2; 3; 4 ] (sel C.Cle 99);
  Alcotest.(check (list int)) "singleton" [ 2 ] (sel C.Ceq 3);
  (* an empty range is legal (last batch of a multiple-of-batch input) *)
  Alcotest.(check (list int)) "empty range" []
    (run_const col C.Ceq (V.Int 3) ~lo:5 ~len:0);
  (* the all-ones unrolled path: a full word plus an unaligned tail *)
  let big = C.of_values (Array.init 100 (fun i -> V.Int i)) in
  Alcotest.(check (list int)) "all-ones words"
    (List.init 100 Fun.id)
    (run_const big C.Cge (V.Int 0) ~lo:0 ~len:100)

let test_scratch_pool () =
  (* nested holds are distinct buffers (the pool is a stack)... *)
  C.Scratch.with_words ~len:200 (fun a ->
      C.Scratch.with_words ~len:200 (fun b ->
          Alcotest.(check bool) "nested buffers distinct" false (a == b)));
  (* ...and sequential uses reuse the same buffer (identity probe only:
     the buffer is never read after release) *)
  let probe = ref [||] in
  C.Scratch.with_words ~len:100 (fun a -> probe := a);
  C.Scratch.with_words ~len:100 (fun b ->
      Alcotest.(check bool) "sequential reuse" true (b == !probe));
  (* a too-small pooled buffer is replaced, never resized in place *)
  C.Scratch.with_ints 5 (fun _ -> ());
  C.Scratch.with_ints 10_000 (fun b ->
      Alcotest.(check bool) "grown" true (Array.length b >= 10_000))

(* A filter that keeps every row must return the input relation itself
   (no copy); one that keeps none must return an empty relation. *)
let test_filter_full_empty_via_plan () =
  forcing 1 (fun () ->
      let parse = Diagres_ra.Parser.parse in
      let full = Plan.run (Planner.plan db (parse "select[sid >= 0](Sailor)"))
      and none =
        Plan.run (Planner.plan db (parse "select[sid < 0](Sailor)"))
      in
      Testutil.check_same_rows "full selection" D.Sample_db.sailors full;
      Alcotest.(check int) "empty selection" 0 (D.Relation.cardinality none))

(* ------------------------------------------------------------------ *)
(* Batches and relations.                                              *)

let test_of_batch_canonicalizes () =
  let mk l = Array.map (fun i -> V.Int i) (Array.of_list l) in
  let tups = [| mk [ 3; 1 ]; mk [ 1; 2 ]; mk [ 3; 1 ]; mk [ 1; 1 ] |] in
  let b = D.Batch.of_tuples ~arity:2 tups in
  let schema =
    [ { D.Schema.name = "x"; ty = V.Tint };
      { D.Schema.name = "y"; ty = V.Tint } ]
  in
  let r = D.Relation.of_batch schema b in
  let expected = D.Relation.of_tuples schema (Array.to_list tups) in
  Testutil.check_same_rows "sorted + deduped" expected r;
  Alcotest.(check int) "3 distinct rows" 3 (D.Relation.cardinality r);
  (* a columnar-born relation converts back to rows on demand *)
  Alcotest.(check bool) "mem decodes" true
    (D.Relation.mem (mk [ 1; 2 ]) r);
  Alcotest.(check bool) "mem rejects" false
    (D.Relation.mem (mk [ 2; 1 ]) r)

(* Deferred selection views: of_view must behave exactly like the gather
   it postpones, for every consumer path (cardinality, tuples, mem,
   batch), both canonical and not. *)
let test_deferred_view_semantics () =
  let n = 130 in
  let b =
    D.Batch.make ~nrows:n
      [| C.of_values (Array.init n (fun i -> V.Int i));
         C.of_values (Array.init n (fun i -> V.Int (i mod 4))) |]
  in
  let schema =
    [ { D.Schema.name = "x"; ty = V.Tint };
      { D.Schema.name = "y"; ty = V.Tint } ]
  in
  let bits = Array.make (C.words_for n) 0 in
  (C.fill_with (fun i -> i mod 3 = 0)) ~lo:0 ~len:n bits;
  let count = C.count_bits bits ~len:n in
  let v = D.Relation.of_view ~count schema b bits in
  (* cardinality of a canonical view never gathers *)
  Alcotest.(check int) "view cardinality" count (D.Relation.cardinality v);
  (match D.Relation.view_sel v with
  | None -> Alcotest.fail "canonical view must expose its selection"
  | Some (base, sel) ->
    Alcotest.(check bool) "view base shared" true (base == b);
    Alcotest.(check int) "sel length" count (Array.length sel));
  let eager = D.Relation.of_batch schema (D.Batch.gather_bits b bits) in
  Alcotest.(check bool) "view = eager" true (D.Relation.same_rows eager v);
  Alcotest.(check bool) "mem through view" true
    (D.Relation.mem [| V.Int 3; V.Int 3 |] v);
  (* a non-canonical view (here: duplicates from a projection) dedups at
     materialization *)
  let bits2 = Array.make (C.words_for n) 0 in
  (C.fill_with (fun i -> i < 10)) ~lo:0 ~len:n bits2;
  let ys = D.Batch.columns b [| 1 |] in
  let vy =
    D.Relation.of_view ~canonical:false ~count:10
      [ { D.Schema.name = "y"; ty = V.Tint } ]
      ys bits2
  in
  Alcotest.(check bool) "non-canonical view hides sel" true
    (D.Relation.view_sel vy = None);
  Alcotest.(check int) "deduped at materialization" 4
    (D.Relation.cardinality vy)

let test_distinct_sorted_paths () =
  (* the single-column dedup has a linear fast path for already-sorted
     int columns and a hashtable path otherwise — same result required *)
  let dedup l =
    let col = D.Column.make_ints (List.length l) in
    List.iteri (fun i v -> col.{i} <- v) l;
    let b = D.Batch.make ~nrows:(List.length l) [| D.Column.Ints col |] in
    let c = D.Batch.sort_dedup b in
    List.init (D.Batch.nrows c) (fun i ->
        match (D.Batch.tuple_at c i).(0) with V.Int v -> v | _ -> assert false)
  in
  let sorted_dups = [ 1; 1; 2; 4; 4; 4; 9 ] in
  let shuffled = [ 4; 1; 9; 4; 2; 1; 4 ] in
  Alcotest.(check (list int)) "sorted input, linear path" [ 1; 2; 4; 9 ]
    (dedup sorted_dups);
  Alcotest.(check (list int)) "unsorted input, hashtable path" [ 1; 2; 4; 9 ]
    (dedup shuffled);
  Alcotest.(check (list int)) "already distinct" [ 3; 5; 8 ] (dedup [ 3; 5; 8 ]);
  Alcotest.(check (list int)) "singleton" [ 7 ] (dedup [ 7 ]);
  Alcotest.(check (list int)) "empty" [] (dedup [])

let test_tuples_array_memoized () =
  let r = D.Sample_db.sailors in
  Alcotest.(check bool) "same physical array" true
    (D.Relation.tuples_array r == D.Relation.tuples_array r);
  (* and on a columnar-born relation too *)
  let rc =
    D.Relation.of_batch (D.Relation.schema r)
      (D.Relation.batch r)
  in
  Alcotest.(check bool) "columnar-born memoized" true
    (D.Relation.tuples_array rc == D.Relation.tuples_array rc)

let test_stats_columnar_fast_path () =
  (* row-born and columnar-born views of the same rows must report the
     same statistics; the columnar side reads them off the columns *)
  List.iter
    (fun (_, r) ->
      let rc = D.Relation.of_batch (D.Relation.schema r) (D.Relation.batch r) in
      let s = D.Relation.stats r and sc = D.Relation.stats rc in
      Alcotest.(check int) "rows" s.D.Stats.rows sc.D.Stats.rows;
      Alcotest.(check (array int)) "distinct" s.D.Stats.distinct
        sc.D.Stats.distinct)
    (D.Database.relations db)

(* Late materialization: project-after-join drops columns without
   decoding them; the result must still match the naive evaluator. *)
let test_late_materialization_project_after_join () =
  let parse = Diagres_ra.Parser.parse in
  let queries =
    [ "project[sname](Sailor join Reserves)";
      "project[bid](select[rating > 7](Sailor join Reserves))";
      "project[color](Boat join Reserves)" ]
  in
  List.iter
    (fun q ->
      let e = parse q in
      let naive = Diagres_ra.Eval.eval db e in
      List.iter
        (fun domains ->
          let columnar, row, _ = both_legs domains e in
          Testutil.check_same_rows
            (Printf.sprintf "%s at %d domains, columnar" q domains)
            naive columnar;
          Testutil.check_same_rows
            (Printf.sprintf "%s at %d domains, row" q domains)
            naive row)
        [ 1; 4 ])
    queries

(* ------------------------------------------------------------------ *)
(* Vectorized division.                                                *)

let test_division_vec () =
  let parse = Diagres_ra.Parser.parse in
  let queries =
    [ (* Q3 of the tutorial: sailors who reserved all red boats *)
      "project[sid, bid](Reserves) div project[bid](select[color = 'red'](Boat))";
      "project[sid, bid](Reserves) div project[bid](Boat)";
      (* the classic caveat: an empty divisor keeps every candidate *)
      "project[sid, bid](Reserves) div project[bid](select[bid < 0](Boat))";
      (* multi-column keep *)
      "Reserves div project[day](Reserves)" ]
  in
  List.iter
    (fun q ->
      let e = parse q in
      let naive = Diagres_ra.Eval.eval db e in
      let columnar, row, _ = both_legs 1 e in
      Testutil.check_same_rows (q ^ ", columnar") naive columnar;
      Testutil.check_same_rows (q ^ ", row") naive row)
    queries

(* ------------------------------------------------------------------ *)
(* Telemetry wiring.                                                   *)

let test_counters () =
  let batches0 = T.counter_named "columnar.batches"
  and rows0 = T.counter_named "columnar.rows" in
  forcing 1 (fun () ->
      let e = Diagres_ra.Parser.parse "select[rating = 10](Sailor)" in
      ignore (Plan.run (Planner.plan db e) : D.Relation.t));
  Alcotest.(check bool) "batches counted" true
    (T.counter_named "columnar.batches" > batches0);
  Alcotest.(check bool) "rows counted" true
    (T.counter_named "columnar.rows" > rows0);
  (* a nested-loop join over columnar inputs is a counted row-mode
     fallback *)
  let fb0 = T.counter_named "columnar.fallback_row_mode" in
  forcing 1 (fun () ->
      let e =
        Diagres_ra.Parser.parse
          "select[rating > 7](Sailor) * select[bid >= 0](Boat)"
      in
      ignore (Plan.run (Planner.plan db e) : D.Relation.t));
  Alcotest.(check bool) "fallback counted" true
    (T.counter_named "columnar.fallback_row_mode" > fb0);
  (* division is vectorized now: no fallback on the bench-suite shapes *)
  let fb1 = T.counter_named "columnar.fallback_row_mode" in
  forcing 1 (fun () ->
      let e =
        Diagres_ra.Parser.parse
          "project[sid, bid](Reserves) div project[bid](Boat)"
      in
      ignore (Plan.run (Planner.plan db e) : D.Relation.t));
  Alcotest.(check int) "division does not fall back" fb1
    (T.counter_named "columnar.fallback_row_mode");
  (* a fused filter chain defers its gathers and counts them *)
  let d0 = T.counter_named "columnar.gathers_deferred" in
  forcing 1 (fun () ->
      let e =
        Diagres_ra.Parser.parse
          "select[rating > 3](select[age > 20.0](Sailor))"
      in
      let r = Plan.run (Planner.plan db e) in
      let naive =
        Diagres_ra.Eval.eval db
          (Diagres_ra.Parser.parse
             "select[rating > 3](select[age > 20.0](Sailor))")
      in
      Testutil.check_same_rows "fused chain" naive r);
  Alcotest.(check bool) "gathers deferred counted" true
    (T.counter_named "columnar.gathers_deferred" > d0);
  (* a vectorized filter consumed by a set operation or a nested-loop
     join is not fusable: it gathers, and defers nothing *)
  List.iter
    (fun src ->
      let d1 = T.counter_named "columnar.gathers_deferred" in
      forcing 1 (fun () ->
          let plan = Planner.plan db (Diagres_ra.Parser.parse src) in
          Plan.fold_unique
            (fun n () ->
              match n.Plan.op with
              | Plan.Filter _ ->
                Alcotest.(check (pair bool bool))
                  (src ^ ": filter vec, not fuse") (true, false)
                  (n.Plan.vec, n.Plan.fuse)
              | _ -> ())
            plan ();
          ignore (Plan.run plan : D.Relation.t));
      Alcotest.(check int) (src ^ ": defers nothing") d1
        (T.counter_named "columnar.gathers_deferred"))
    [ "select[rating > 7](Sailor) union select[rating <= 3](Sailor)";
      "select[rating > 7](Sailor) * select[color = 'red'](Boat)" ]

(* ------------------------------------------------------------------ *)
(* The 500-query differential: columnar ≡ row ≡ naive at 1 and 4      *)
(* domains, with forced-small batches.                                 *)

let fuzz_n =
  match Sys.getenv_opt "DIAGRES_FUZZ_N" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 500)
  | None -> 500

let test_differential () =
  let st = Random.State.make [| 0xc01; 2026 |] in
  for i = 1 to fuzz_n do
    let e = Q.gen_ra st schemas 3 in
    let naive = Diagres_ra.Eval.eval db e in
    List.iter
      (fun domains ->
        let columnar, row, row_kernels_only = both_legs domains e in
        if not (D.Relation.same_rows naive columnar) then
          Alcotest.failf
            "#%d at %d domains: columnar diverges from naive:\n%s" i domains
            (Diagres_ra.Pretty.ascii e);
        if not (D.Relation.same_rows naive row) then
          Alcotest.failf "#%d at %d domains: row mode diverges from naive:\n%s"
            i domains (Diagres_ra.Pretty.ascii e);
        if not row_kernels_only then
          Alcotest.failf
            "#%d at %d domains: the row leg ran a vectorized kernel:\n%s" i
            domains (Diagres_ra.Pretty.ascii e))
      [ 1; 4 ]
  done

(* QCheck variant over Testutil's generator: different query shapes
   (products with renamed-apart sides, disjunctions), with shrinking. *)
let prop_columnar_matches_row =
  QCheck.Test.make ~name:"columnar = row = naive (1/4 domains)"
    ~count:120
    (Testutil.arbitrary_ra ())
    (fun e ->
      let naive = Diagres_ra.Eval.eval db e in
      List.for_all
        (fun domains ->
          let columnar, row, row_kernels_only = both_legs domains e in
          D.Relation.same_rows naive columnar
          && D.Relation.same_rows naive row
          && row_kernels_only)
        [ 1; 4 ])

let () =
  Alcotest.run "columnar"
    [ ( "columns",
        [ Alcotest.test_case "dictionary roundtrip" `Quick test_dict_roundtrip;
          Alcotest.test_case "ordered string consts" `Quick
            test_dict_ordered_const ] );
      ( "kernels",
        [ Alcotest.test_case "int kernels = row semantics" `Quick
            test_int_kernel_vs_rows;
          Alcotest.test_case "float kernels (nan) = row semantics" `Quick
            test_float_kernel_vs_rows;
          Alcotest.test_case "col-col kernels = row semantics" `Quick
            test_cols_kernel_vs_rows;
          Alcotest.test_case "wand/wor/wnot" `Quick test_word_combiners;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "selection edges" `Quick test_selection_edges;
          Alcotest.test_case "scratch pool" `Quick test_scratch_pool;
          Alcotest.test_case "full/empty filters" `Quick
            test_filter_full_empty_via_plan ] );
      ( "relations",
        [ Alcotest.test_case "of_batch canonicalizes" `Quick
            test_of_batch_canonicalizes;
          Alcotest.test_case "deferred view semantics" `Quick
            test_deferred_view_semantics;
          Alcotest.test_case "distinct_sorted paths" `Quick
            test_distinct_sorted_paths;
          Alcotest.test_case "tuples_array memoized" `Quick
            test_tuples_array_memoized;
          Alcotest.test_case "stats fast path" `Quick
            test_stats_columnar_fast_path;
          Alcotest.test_case "late materialization" `Quick
            test_late_materialization_project_after_join ] );
      ( "division",
        [ Alcotest.test_case "sorted-group merge = naive" `Quick
            test_division_vec ] );
      ( "telemetry",
        [ Alcotest.test_case "columnar counters" `Quick test_counters ] );
      ( "differential",
        [ Alcotest.test_case "500 queries, columnar = row = naive"
            `Slow test_differential;
          Testutil.qtest prop_columnar_matches_row ] ) ]
