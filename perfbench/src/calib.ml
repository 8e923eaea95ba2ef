(* Host-speed reference for the untraced wall times.

   The benchmark runs on shared machines whose speed drifts by tens of
   percent over seconds, as other tenants come and go.  Measured
   there, the drift is in throughput-bound, allocating code -- the
   kind this program is made of -- while latency-bound loops hardly
   move.  So a timed run also times, every [interval_s] or so of its
   work, a short reference slice: a fixed loop of short-lived list
   allocations that calls no code of the repository.  The run's
   corrected time is its own time (slices excluded) scaled by
   [nominal_s] over the mean slice time: the time the run would take on
   a host where one slice takes [nominal_s].

   A slice runs on the domain that does the work, in the same process.
   The minor heap is emptied just before a slice starts (on the
   program's time) and the slice's own allocations die young, so a
   slice does no collector work for the program. *)

let slice_iters = 50_000

(* One slice on an undisturbed 2-core Xeon KVM guest, OCaml 5.1. *)
let nominal_s = 1.5e-3
let interval_s = 0.025

type t = { mutable next : float; mutable spent : float; mutable slices : int }

let create () = { next = neg_infinity; spent = 0.; slices = 0 }

let slice () =
  let acc = ref 0 in
  for i = 1 to slice_iters do
    let l = [ i; i + 1; i + 2; i + 3 ] in
    acc := !acc + List.fold_left ( + ) 0 (List.rev l)
  done;
  ignore (Sys.opaque_identity !acc)

let take c =
  Gc.minor ();
  let t0 = Util.now () in
  slice ();
  let t1 = Util.now () in
  c.spent <- c.spent +. (t1 -. t0);
  c.slices <- c.slices + 1;
  c.next <- t1 +. interval_s

(* Take a slice if one is due; the first call always takes one. *)
let tick c = if Util.now () >= c.next then take c

(* [x] seconds measured on this host, at the reference speed, from
   eight slices taken now: for work too short to tick through. *)
let scale x =
  let c = create () in
  for _ = 1 to 8 do
    take c
  done;
  x *. nominal_s /. (c.spent /. 8.)

type run = {
  raw_s : float;  (** wall time of the work, slices excluded *)
  corrected_s : float;  (** [raw_s] at the reference speed *)
  slice_s : float;  (** mean slice time *)
}

(* [wall] seconds spent by [domains] domains, each ticking its own
   reference in [cs]; slices taken on one domain stall only that
   domain, so their time is shared among the domains. *)
let correct cs ~domains ~wall =
  let spent = Util.sum (List.map (fun c -> c.spent) cs) in
  let slices = List.fold_left (fun n c -> n + c.slices) 0 cs in
  if slices = 0 then Util.fail "no reference slice was taken";
  let raw_s = wall -. (spent /. float_of_int domains) in
  let slice_s = spent /. float_of_int slices in
  { raw_s; corrected_s = raw_s *. nominal_s /. slice_s; slice_s }
