(** Order statistics over request latencies. *)

(** Nearest-rank percentile: the smallest value with at least [p] percent
    of the sample at or below it.  [p] in (0, 100]; raises on an empty
    sample. *)
let percentile p (xs : float list) =
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)

(** The median (mean of the two middle values for an even count). *)
let median (xs : float list) =
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.median: empty sample"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** A latency sample for the percentiles: a completed request enters at
    its measured latency; a failed one at the time the client waited for
    the failure, and never below the deadline, since it missed any latency
    limit. *)
let entry ~deadline_ms ~failed ms = if failed then Float.max deadline_ms ms else ms
