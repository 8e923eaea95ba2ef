(* Timing and statistics helpers shared by the benchmark parts. *)

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt
let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolation quantile (the "inclusive" method). *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> invalid_arg "Util.quantile: empty"
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float (floor pos) in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Percentile of an integer histogram, interpolated within the bucket
   as grouped data: value [v] covers [v - 0.5, v + 0.5), so the result
   moves continuously with the distribution instead of snapping to an
   integer tick.  Ranks in the overflow bucket report [max_seen]. *)
let hist_percentile (h : Rcons.Service.Metrics.hist) p =
  if h.total = 0 then 0.
  else begin
    let target = p *. float_of_int h.total in
    let rec go v below =
      if v >= h.cap then float_of_int h.max_seen
      else
        let c = h.counts.(v) in
        if c > 0 && float_of_int (below + c) >= target then
          Float.max 0. (float_of_int v -. 0.5 +. ((target -. float_of_int below) /. float_of_int c))
        else go (v + 1) (below + c)
    in
    go 0 0
  end

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> fail "VmHWM missing from /proc/self/status"
  in
  scan ()

(* Run [f] at least [min_runs] times, then again while another run of
   the mean length so far still fits in [budget] seconds; [first] runs
   after the first run.  Returns the results in run order.  Each run
   starts after a [Gc.compact], as in a fresh process, so no run pays
   for collecting the garbage of the runs before it. *)
let repeat ?(first = ignore) ~budget ~min_runs f =
  let t0 = now () in
  let rec go n acc =
    let elapsed = now () -. t0 in
    if n >= min_runs && elapsed +. (elapsed /. float_of_int n) > budget then List.rev acc
    else begin
      Gc.compact ();
      let r = f () in
      if n = 0 then first ();
      go (n + 1) (r :: acc)
    end
  in
  go 0 []

let sum = List.fold_left ( +. ) 0.

(* A metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
