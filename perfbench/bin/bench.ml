(* The benchmark's command line.

   Driver:  bench --workload NAME --seed N --seconds S --trace 0|1
   Worker:  bench --worker serve|oracle --workload NAME --seed N --trace 0|1
            (started by the driver; speaks the protocol of [Worker]) *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench --workload ask-mix|analytics|views --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let find k = List.assoc_opt k o in
  let workload =
    match Option.bind (find "workload") Workload.of_string with
    | Some w -> w
    | None -> usage ()
  in
  let seed =
    match Option.bind (find "seed") int_of_string_opt with
    | Some s -> s
    | None -> usage ()
  in
  let trace =
    match find "trace" with Some "1" -> true | Some "0" -> false | _ -> usage ()
  in
  match find "worker" with
  | Some role ->
    Worker.main ~oracle:(role = "oracle") ~workload ~seed ~traced:trace
  | None -> (
    let seconds =
      match Option.bind (find "seconds") float_of_string_opt with
      | Some s when s > 0. -> s
      | _ -> usage ()
    in
    try
      Driver.run { Driver.workload; seed; seconds; trace }
    with Driver.Setup_failed why ->
      prerr_endline ("bench: " ^ why);
      exit 1)
