(* Output log for consensus executions.  Every value a process returns is
   appended (a process may output several times across crash/recovery
   cycles -- agreement must hold over all of them).  Recording an output
   is a meta-observation of the simulation, not a shared-memory step. *)

type 'v t = {
  inputs : 'v array;
  outputs : 'v list array;
  mutable slot : Rcons_runtime.Heap.slot option;
}

(* The log is part of the state the explorer's invariants read, so it
   registers with the active Heap arena (if any): two executions only
   share a fingerprint when their output histories agree too.  The array
   is indexed by pid, so a symmetry snapshot relabels it: process i's
   history moves to slot perm.(i). *)
let make ~inputs =
  let t = { inputs; outputs = Array.map (fun _ -> []) inputs; slot = None } in
  t.slot <-
    Rcons_runtime.Heap.register_sym_c (fun perm ->
        match perm with
        | None -> Rcons_runtime.Heap.digest t.outputs
        | Some perm ->
            let a = Array.make (Array.length t.outputs) [] in
            Array.iteri (fun i l -> a.(perm.(i)) <- l) t.outputs;
            Rcons_runtime.Heap.digest a);
  t

(* Recording happens in the process body after its last step, so the
   rollback feed re-runs it: skip the append then (the journal already
   restored the log), journal it otherwise. *)
let record t i v =
  if not (Rcons_runtime.Undo.feeding ()) then begin
    if Rcons_runtime.Undo.recording () then begin
      let old = t.outputs.(i) in
      Rcons_runtime.Undo.log (fun () ->
          t.outputs.(i) <- old;
          Rcons_runtime.Heap.touch t.slot)
    end;
    t.outputs.(i) <- v :: t.outputs.(i);
    Rcons_runtime.Heap.touch t.slot
  end
let all t = Array.to_list t.outputs |> List.concat
let decided t i = t.outputs.(i) <> []

(* The checks run after every explored edge, so they walk [outputs] in
   place, allocating nothing, in the order of [all]: process by process,
   each one's outputs most recent first. *)

let rec all_equal v = function [] -> true | x :: tl -> v = x && all_equal v tl

let rec agree_from v outs i =
  i = Array.length outs || (all_equal v outs.(i) && agree_from v outs (i + 1))

let rec agreement_at outs i =
  i = Array.length outs
  ||
  match outs.(i) with
  | [] -> agreement_at outs (i + 1)
  | v :: rest -> all_equal v rest && agree_from v outs (i + 1)

(* Agreement: no two output values produced (by any processes, in any
   runs) are different -- every output equals the first one. *)
let agreement_ok t = agreement_at t.outputs 0

let rec is_input inputs v i =
  i < Array.length inputs && (v = inputs.(i) || is_input inputs v (i + 1))

let rec all_inputs inputs = function [] -> true | v :: tl -> is_input inputs v 0 && all_inputs inputs tl

let rec valid_from inputs outs i =
  i = Array.length outs || (all_inputs inputs outs.(i) && valid_from inputs outs (i + 1))

(* Validity: each output value is the input value of some process. *)
let validity_ok t = valid_from t.inputs t.outputs 0

let check_exn ~fail t =
  if not (agreement_ok t) then fail "agreement violated";
  if not (validity_ok t) then fail "validity violated"
