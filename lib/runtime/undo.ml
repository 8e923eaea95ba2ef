(* Domain-local undo journal for the simulator's checkpoint/restore
   engine.

   The journal is a LIFO stack of restore closures.  While a journal is
   installed (the explorer installs one around each depth-first walk),
   every mutation of simulated state — cell contents, cache-line
   ownership, per-process step/crash counters, container growth, digest
   registrations — pushes a closure that puts the old value back.
   [mark] takes the current stack extent; [rollback_to] pops and runs
   entries newest-first until the stack is back at the mark, which
   restores the entire simulation to its state at the mark.

   A closure need not capture the old values itself.  The simulator's
   per-step entry is one closure per system, allocated when the system
   is created: it pops the system's own flat stacks of saved fields
   (see sim.ml), so a step journals itself without allocating.  Cells,
   objects and the rarer crash entries push closures that capture what
   they restore.

   Three conditions gate recording:

   - no journal installed: [log] is a no-op, so the write-through paths
     (tests, checkers, the replay engine) pay one branch per mutation;
   - rolling back: restore closures re-perform mutations (writing the
     old value back goes through the same mutable fields), and those
     must not journal themselves;
   - feeding: while [Sim.rollback] rebuilds a crashed-and-rewound
     process by re-feeding its recorded step values ([feed] below), the
     step bodies are skipped but the bookkeeping around them re-runs;
     the journal is already unwound past that region, so nothing may be
     recorded.

   The journal never depends on [Heap]/[Sim] (they depend on it).
   Counters accumulate locally and flush to {!Rcons_par.Pool.Telemetry}
   at [uninstall], so the hot path touches no atomics. *)

(* The rebuild feed: the recorded step values [src.(idx .. len-1)] that
   [Sim.step] hands back instead of suspending.  [len < 0] means no
   rebuild is running; [len >= 0] means one is, even once the values are
   used up (the body then runs on to its real suspension, still a
   re-execution). *)
type feed = { mutable src : Obj.t array; mutable idx : int; mutable len : int }

let feed_key : feed Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { src = [||]; idx = 0; len = -1 })

let feed () = Domain.DLS.get feed_key
let feeding () = (Domain.DLS.get feed_key).len >= 0

type journal = {
  mutable entries : (unit -> unit) array;
  mutable len : int;
  mutable live : bool; (* false while running restore closures *)
  fd : feed; (* the domain's feed: recording is off while it runs *)
  mutable peak : int; (* high-water [len] *)
  mutable pushed : int; (* total entries recorded *)
  mutable restores : int; (* rollback_to calls *)
}

let nop () = ()

let key : journal option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let install () =
  let r = Domain.DLS.get key in
  (match !r with
  | Some _ -> invalid_arg "Undo.install: a journal is already installed on this domain"
  | None -> ());
  r :=
    Some
      {
        entries = Array.make 1024 nop;
        len = 0;
        live = true;
        fd = feed ();
        peak = 0;
        pushed = 0;
        restores = 0;
      }

(* Rough per-entry footprint, for the telemetry high-water estimate
   only, never for correctness.  About half the entries are simulator
   steps: a slot here plus six ints and three pointers on the system's
   flat stacks (80 bytes).  Most of the rest are cell and object writes:
   a slot plus a closure capturing the cell and its old value (48
   bytes). *)
let bytes_per_entry = 64

let uninstall () =
  let r = Domain.DLS.get key in
  (match !r with
  | None -> ()
  | Some j ->
      Rcons_par.Pool.Telemetry.note_undo ~restores:j.restores ~entries:j.pushed
        ~bytes_peak:(j.peak * bytes_per_entry));
  r := None

let installed () = match !(Domain.DLS.get key) with Some _ -> true | None -> false
let is_recording j = j.live && j.fd.len < 0

let recording () =
  match !(Domain.DLS.get key) with Some j -> is_recording j | None -> false

(* The handle is the domain's journal slot itself: [install]/[uninstall]
   mutate the slot's contents, never replace the slot, so a handle
   captured at any time (even before [install]) stays current. *)
type handle = journal option ref

let handle () : handle = Domain.DLS.get key
let h_installed (h : handle) = match !h with Some _ -> true | None -> false
let h_recording (h : handle) = match !h with Some j -> is_recording j | None -> false

let push j f =
  let n = Array.length j.entries in
  if j.len = n then begin
    let bigger = Array.make (2 * n) nop in
    Array.blit j.entries 0 bigger 0 n;
    j.entries <- bigger
  end;
  j.entries.(j.len) <- f;
  j.len <- j.len + 1;
  j.pushed <- j.pushed + 1;
  if j.len > j.peak then j.peak <- j.len

let h_log (h : handle) f =
  match !h with Some j when is_recording j -> push j f | Some _ | None -> ()

let log f = h_log (Domain.DLS.get key) f

let mark () = match !(Domain.DLS.get key) with Some j -> j.len | None -> 0

let rollback_to m =
  match !(Domain.DLS.get key) with
  | None -> ()
  | Some j ->
      if m > j.len then invalid_arg "Undo.rollback_to: mark is beyond the journal tip";
      j.live <- false;
      (try
         while j.len > m do
           j.len <- j.len - 1;
           let f = j.entries.(j.len) in
           j.entries.(j.len) <- nop;
           f ()
         done
       with e ->
         j.live <- true;
         raise e);
      j.live <- true;
      j.restores <- j.restores + 1
