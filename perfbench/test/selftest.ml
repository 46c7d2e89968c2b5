(* Self-tests of the benchmark: determinism of inputs and results,
   percentile accounting, deadline and budget enforcement, and the result
   line.

   Usage: selftest.exe PATH/TO/bench.exe *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let bench = ref ""

(* ---------------- inputs ---------------- *)

let test_pool () =
  let a = Workload.ask_pool () and b = Workload.ask_pool () in
  check "the ask-mix pool is the same in every run" (a = b);
  check "pool holds 340 queries" (Array.length a = 340);
  let texts = Array.to_list (Array.map (fun q -> q.Workload.text) a) in
  check "pool queries are distinct"
    (List.length (List.sort_uniq compare texts) = Array.length a);
  check "pool outgrows the 256-entry plan cache" (Array.length a > 256);
  check "three passes schedule at least 1000 requests" (3 * Array.length a >= 1000);
  check "catalog cells lead the pool"
    (Array.sub a 0 25 = Array.of_list (Workload.catalog_cells ()));
  let draws seed =
    let st = Random.State.make [| seed |] in
    List.map
      (fun lang -> Diagres.Languages.to_string (Workload.gen_one st lang))
      Diagres.Languages.all
  in
  check "same Qgen state, same generated queries" (draws 1 = draws 1);
  check "another Qgen state, other generated queries" (draws 1 <> draws 2);
  check "same run seed, same pass order"
    (Workload.pass_order ~seed:3 ~pass:1 340 = Workload.pass_order ~seed:3 ~pass:1 340);
  check "another run seed, another order"
    (Workload.pass_order ~seed:3 ~pass:1 340 <> Workload.pass_order ~seed:4 ~pass:1 340);
  check "passes are shuffled differently"
    (Workload.pass_order ~seed:3 ~pass:1 340 <> Workload.pass_order ~seed:3 ~pass:2 340)

(* ---------------- percentiles ---------------- *)

let test_percentiles () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  check "nearest-rank p50 of 1..10 is 5" (Stats.percentile 50. xs = 5.);
  check "nearest-rank p90 of 1..10 is 9" (Stats.percentile 90. xs = 9.);
  check "nearest-rank p99 of 1..10 is 10" (Stats.percentile 99. xs = 10.);
  let deadline_ms = 1000. in
  let sample =
    List.init 98 (fun _ -> Stats.entry ~deadline_ms ~failed:false 2.)
    @ [ Stats.entry ~deadline_ms ~failed:true 3.;
        Stats.entry ~deadline_ms ~failed:true 1004. ]
  in
  check "a fast failure enters at the deadline"
    (Stats.entry ~deadline_ms ~failed:true 3. = deadline_ms);
  check "a failure enters at its wait when longer"
    (Stats.entry ~deadline_ms ~failed:true 1004. = 1004.);
  check "p99 counts the failures" (Stats.percentile 99. sample = 1000.);
  check "p98 does not" (Stats.percentile 98. sample = 2.);
  check "median of an even count" (Stats.median [ 1.; 2.; 3.; 4. ] = 2.5)

(* A completed request whose answer differs from the oracle's becomes a
   wrong answer, and enters the percentiles at the deadline. *)
let test_wrong_answer () =
  let ctx = Driver.context Workload.Analytics ~seed:1 in
  Hashtbl.replace ctx.Driver.oracle 0 "good";
  let reply = { Driver.status = "ok"; fields = [ ("dig", "bad") ]; spans = [] } in
  let a =
    { Driver.q = 0; failed = None; wait_ms = 5.; reply = Some reply; round = 0;
      pid = 1; sent_ns = 0L; wall_ns = 6_000_000L }
  in
  Driver.check_query ctx a;
  check "an answer unlike the oracle's is wrong"
    (match a.Driver.failed with Some (Driver.Wrong _) -> true | _ -> false);
  check "a wrong answer enters the percentiles at the deadline"
    (a.Driver.wait_ms = Workload.deadline_s *. 1000.)

(* ---------------- the deadline ---------------- *)

let test_deadline () =
  let p =
    Proc.spawn
      [ "--worker"; "serve"; "--workload"; "ask-mix"; "--seed"; "1"; "--trace"; "0" ]
  in
  (match Proc.read_line p ~deadline:(Int64.add (Proc.now ()) (Proc.ns_of_s 60.)) with
  | `Line l -> check "worker announces ready" (String.sub l 0 5 = "ready")
  | _ -> check "worker announces ready" false);
  let deadline_ns = Proc.ns_of_s 0.3 in
  (match Driver.issue p ~deadline_ns "sleep 0.01" with
  | Driver.Replied (r, _) -> check "a short request completes" (r.Driver.status = "ok")
  | _ -> check "a short request completes" false);
  let t0 = Proc.now () in
  let out = Driver.issue p ~deadline_ns "sleep 30" in
  let took = Int64.to_float (Int64.sub (Proc.now ()) t0) /. 1e9 in
  (match out with
  | Driver.Timed_out wall ->
    check "a sleeping request is cut at the deadline"
      (Int64.to_float wall /. 1e9 >= 0.3 && took < 5.)
  | _ -> check "a sleeping request is cut at the deadline" false);
  check "the sleeping worker is killed" (not p.Proc.alive);
  (match
     Unix.waitpid [ Unix.WNOHANG ] p.Proc.pid
   with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> check "and reaped" true
  | _ -> check "and reaped" false);
  let ctx_deadline_ms = 300. in
  match out with
  | Driver.Timed_out wall ->
    let wait = Int64.to_float wall /. 1e6 in
    check "it counts as a timeout at no less than the deadline"
      (Stats.entry ~deadline_ms:ctx_deadline_ms ~failed:true wait >= ctx_deadline_ms)
  | _ -> ()

(* ---------------- the work budget ---------------- *)

let test_budget () =
  let p =
    Proc.spawn
      [ "--worker"; "serve"; "--workload"; "ask-mix"; "--seed"; "1"; "--trace"; "0" ]
  in
  ignore (Proc.read_line p ~deadline:(Int64.add (Proc.now ()) (Proc.ns_of_s 60.)));
  let deadline_ns = Proc.ns_of_s 30. in
  let budget = Option.get Workload.((spec Ask_mix).budget_mb) in
  let alloc mb = Driver.issue p ~deadline_ns (Printf.sprintf "alloc %.0f" mb) in
  (match alloc (budget /. 10.) with
  | Driver.Replied (r, _) ->
    check "a request within the budget completes" (r.Driver.status = "ok")
  | _ -> check "a request within the budget completes" false);
  (match alloc (budget *. 2.) with
  | Driver.Replied (r, _) ->
    check "a request over the budget is stopped as a timeout"
      (r.Driver.status = "timeout" && Driver.get r "what" = Some "budget");
    check "having allocated more than the budget"
      (Driver.get_float r "mem" > budget *. 1048576.)
  | _ -> check "a request over the budget is stopped as a timeout" false);
  check "the stopped worker has exited and is reaped" (not p.Proc.alive)

(* ---------------- whole runs ---------------- *)

let run_bench args =
  let ic = Unix.open_process_args_in !bench (Array.of_list (!bench :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  (status, List.filter (fun l -> l <> "") lines)

let metric json name =
  match Option.bind (Json.member "metrics" json) (Json.member name) with
  | Some m -> (
    match Json.member "value" m with Some (Json.Num v) -> Some v | _ -> None)
  | None -> None

let prefixed p l =
  String.length l > String.length p && String.sub l 0 (String.length p) = p

let traced_run seed =
  let status, lines =
    run_bench
      [ "--workload"; "ask-mix"; "--seed"; string_of_int seed; "--seconds"; "1";
        "--trace"; "1" ]
  in
  let last = List.nth lines (List.length lines - 1) in
  let json = try Some (Json.of_string last) with Json.Parse_error _ -> None in
  (status, json, lines)

(* "fail timeout q3-TRC x1: ..." -> "q3-TRC" *)
let label_of line = List.nth (String.split_on_char ' ' line) 2

(* Each timed-out query with its count of failed attempts: a query that
   first times out on a later pass fails fewer. *)
let timeouts lines =
  List.filter_map
    (fun l ->
      if prefixed "fail timeout" l then
        Some (label_of l, List.nth (String.split_on_char ' ' l) 3)
      else None)
    lines

let test_runs () =
  let s1, j1, l1 = traced_run 21 in
  let s2, j2, l2 = traced_run 21 in
  check "a traced run exits 0" (s1 = Unix.WEXITED 0 && s2 = Unix.WEXITED 0);
  (match (j1, j2) with
  | Some j1, Some j2 ->
    check "the result line parses" true;
    check "the result has exactly the four keys"
      (match j1 with
      | Json.Obj kvs ->
        List.sort compare (List.map fst kvs)
        = [ "attempted"; "correct"; "failed"; "metrics" ]
      | _ -> false);
    check "a run attempts three whole passes over the pool"
      (Json.member "attempted" j1 = Some (Json.Num 1020.));
    let same name =
      check ("same seed, same " ^ name)
        (metric j1 name = metric j2 name && metric j1 name <> None)
    in
    List.iter same
      [ "lower.ra_nodes.p50"; "lower.ra_nodes.max"; "fail.timeout";
        "fail.refused"; "fail.wrong"; "fail.crash"; "fail_ratio";
        "plan_cache.hit_ratio"; "plan_cache.evictions" ];
    let other_failures l =
      List.filter (fun x -> prefixed "fail " x && not (prefixed "fail timeout" x)) l
    in
    check "same seed, same refusals, wrong answers and crashes"
      (other_failures l1 = other_failures l2);
    (* The work budget, not the host's speed, decides which queries time
       out, so the list repeats exactly, with each query's count of failed
       attempts. *)
    let t1 = timeouts l1 in
    check "same seed, same timeouts" (t1 <> [] && t1 = timeouts l2)
  | _ -> check "the result line parses" false);
  let s3, j3, _ = traced_run 22 in
  check "a second seed runs unchanged"
    (s3 = Unix.WEXITED 0
    && match j3 with
       | Some j -> Json.member "correct" j = Some (Json.Bool true)
       | None -> false)

let () =
  (match Sys.argv with
  | [| _; exe |] -> bench := exe
  | _ ->
    prerr_endline "usage: selftest.exe PATH/TO/bench.exe";
    exit 2);
  Proc.exe := !bench;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  test_pool ();
  test_percentiles ();
  test_wrong_answer ();
  test_deadline ();
  test_budget ();
  test_runs ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
