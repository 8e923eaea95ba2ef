(* Registry of the simulated non-volatile heap, for state fingerprinting.

   Shared objects (Cell, Growable, Sim_obj, the algorithm-level output
   logs) live in ordinary OCaml values closed over by process bodies, so
   the simulator cannot enumerate them by itself.  When an arena is
   active on the current domain, every object constructor registers a
   digest thunk for its non-volatile state; [snapshot] then concatenates
   the digests in registration order, which is deterministic because
   system builders are deterministic.  With no active arena (the default,
   and always the case outside [Explore ~dedup:true]) registration is a
   no-op, so ordinary simulations pay nothing.

   The arena is domain-local: each parallel explorer walker builds and
   runs one system at a time on its own domain, and lazily created
   objects (Growable entries, the consensus instances of Figure 4) must
   keep registering into the arena of the system currently executing.

   Incremental fingerprinting: the runtime's own containers register
   through [register_c]/[register_sym_c], which return a cache slot.
   The container marks the slot dirty ([touch]) on every mutation of the
   digested state; [snapshot_into] recomputes only dirty slots and
   serves the rest from cache, so the per-state hashing cost on the
   explorer's dedup path is O(mutations since the last snapshot), not
   O(arena).  The emitted bytes are identical to recomputing everything,
   so fingerprints, visited sets and checkpoints are unaffected.  The
   plain [register]/[register_sym] (used by external instrumentation,
   e.g. bench harnesses digesting a History) keep their
   always-recompute semantics — no touch discipline is demanded of
   arbitrary thunks.

   Encoding: every integer and length prefix in a fingerprint goes
   through [add_int], which writes the bytes of [Int.to_string] straight
   into the caller's buffer.  The per-domain rehash counters flush to
   {!Rcons_par.Pool.Telemetry} once per walk ([flush_telemetry]), so a
   snapshot touches no shared atomics. *)

(* Digest thunks take an optional process relabeling [perm]
   ([perm.(old_pid) = new_pid], None = identity): the explorer's
   process-symmetry canonicalization snapshots the heap under candidate
   relabelings, and the handful of containers whose digests mention pids
   (cache-line owners, the per-process output logs) must relabel them.
   Pid-free digests ignore the argument ([register] wraps them), so a
   [None] snapshot is byte-identical to the pre-symmetry format. *)
type slot = {
  thunk : int array option -> string;
  sym : bool; (* digest mentions pids: perm snapshots must recompute *)
  cacheable : bool; (* mutations promise to [touch]; cache is sound *)
  mutable cached : string;
  mutable dirty : bool;
}

type t = {
  mutable slots : slot list; (* reverse registration order *)
}

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let create () = { slots = [] }
let activate a = Domain.DLS.set key (Some a)
let deactivate () = Domain.DLS.set key None
let current () = Domain.DLS.get key
let active () = Domain.DLS.get key <> None

(* Registrations during an undo-engine walk (lazily created objects:
   Growable entries trigger container re-digests, Figure 4 creates
   consensus instances on demand) must unwind with the rollback, or a
   rolled-back branch would leave phantom digests in the arena. *)
let add a s =
  if Undo.recording () then begin
    let old = a.slots in
    Undo.log (fun () -> a.slots <- old)
  end;
  a.slots <- s :: a.slots

let register_slot ~sym ~cacheable f =
  match Domain.DLS.get key with
  | None -> None
  | Some a ->
      let s = { thunk = f; sym; cacheable; cached = ""; dirty = true } in
      add a s;
      Some s

let register_sym f = ignore (register_slot ~sym:true ~cacheable:false f)
let register f = register_sym (fun _ -> f ())
let register_sym_c f = register_slot ~sym:true ~cacheable:true f
let register_c f = register_slot ~sym:false ~cacheable:true (fun _ -> f ())
let touch = function None -> () | Some s -> s.dirty <- true

(* Canonical digest of a plain-data value: with sharing expanded
   ([No_sharing]) the marshalled bytes coincide with structural equality;
   [Closures] keeps it total on values capturing functions (code pointers
   are stable within one binary, which is all one exploration spans). *)
let digest v = Marshal.to_string v [ Marshal.No_sharing; Marshal.Closures ]

(* Decimal integers, byte-identical to [Int.to_string] (fingerprints are
   persisted in checkpoints, so the bytes are fixed) but with no format
   parsing and no intermediate string.  Digits are produced from the
   non-positive [m = -|n|], which unlike [|n|] exists for [min_int];
   OCaml division truncates toward zero, so [m / p] and [m mod p] stay
   non-positive. *)
let rec top_power m p = if m / p <= -10 then top_power m (p * 10) else p

let rec add_digits b m p =
  Buffer.add_char b (Char.unsafe_chr (48 - (m / p)));
  if p > 1 then add_digits b (m mod p) (p / 10)

let add_int b n =
  if n >= 0 && n < 10 then Buffer.add_char b (Char.unsafe_chr (48 + n))
  else begin
    if n < 0 then Buffer.add_char b '-';
    let m = if n < 0 then n else -n in
    add_digits b m (top_power m 1)
  end

(* "<length>:<bytes>": the framing of every digest in a fingerprint, so
   object boundaries are unambiguous. *)
let add_len_prefixed b d =
  add_int b (String.length d);
  Buffer.add_char b ':';
  Buffer.add_string b d

(* A cache line's owner in a pid-bearing digest: "c" when clean, else
   "p" and the owner relabeled by [perm]. *)
let add_owner b perm = function
  | None -> Buffer.add_char b 'c'
  | Some p ->
      Buffer.add_char b 'p';
      add_int b (match perm with None -> p | Some perm -> perm.(p))

(* Fingerprint counters of the current domain, flushed to the shared
   telemetry by [flush_telemetry] (the explorer calls it once per walk),
   so the per-snapshot path touches no atomics. *)
type counters = {
  mutable full : int; (* slot digests recomputed *)
  mutable saved : int; (* slot digests served from cache *)
  mutable canon_saved_bytes : int; (* see [note_canon_saved_bytes] *)
}

let counters : counters Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { full = 0; saved = 0; canon_saved_bytes = 0 })

let note_canon_saved_bytes n =
  let c = Domain.DLS.get counters in
  c.canon_saved_bytes <- c.canon_saved_bytes + n

let flush_telemetry () =
  let c = Domain.DLS.get counters in
  if c.full <> 0 || c.saved <> 0 then
    Rcons_par.Pool.Telemetry.note_rehashes ~full:c.full ~saved:c.saved;
  if c.canon_saved_bytes <> 0 then
    Rcons_par.Pool.Telemetry.note_canon_saved_bytes c.canon_saved_bytes;
  c.full <- 0;
  c.saved <- 0;
  c.canon_saved_bytes <- 0

(* The slot digests in registration order, each length-prefixed.  The
   [_into] form appends to a caller-owned buffer so the explorer's batch
   fingerprinting can reuse one scratch buffer across a whole chunk of
   states instead of allocating a fresh buffer (and an intermediate
   string) per expanded node.

   Cache policy per slot: a cacheable slot is recomputed only while
   dirty; under a [perm] relabeling, pid-bearing ([sym]) slots are
   always recomputed (their bytes depend on the perm), while pid-free
   cacheable slots still serve the cache (their bytes cannot).  A
   refresh always digests under [None], which for a pid-free thunk is
   the same value.  Rehash counts accumulate in the domain's
   [counters], one flush per walk. *)
let recompute c perm s =
  c.full <- c.full + 1;
  s.thunk perm

let refresh c s =
  if s.dirty then begin
    s.cached <- s.thunk None;
    s.dirty <- false;
    c.full <- c.full + 1
  end
  else c.saved <- c.saved + 1;
  s.cached

let snapshot_into ?perm b a =
  let c = Domain.DLS.get counters in
  List.iter
    (fun s ->
      let d =
        if not s.cacheable then recompute c perm s
        else match perm with Some _ when s.sym -> recompute c perm s | _ -> refresh c s
      in
      add_len_prefixed b d)
    a.slots

let snapshot ?perm a =
  let b = Buffer.create 256 in
  snapshot_into ?perm b a;
  Buffer.contents b
