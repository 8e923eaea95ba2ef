(* Small shared helpers for the experiment harness. *)

let section title =
  Format.printf "@.=== %s ===@." title;
  Format.printf "%s@." (String.make (String.length title + 8) '=')

let row fmt = Format.printf fmt

let ratio a b = if b > 0. then a /. b else 0.

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let level_str l = Format.asprintf "%a" Rcons.Check.Classify.pp_level l
let bounds_str b = Format.asprintf "%a" Rcons.Check.Classify.pp_bounds_option b

(* Global seed offset ([--seed N] in main): every experiment derives its
   adversary seeds through [seed], so one flag reruns the whole harness
   on fresh randomness.  The default offset 0 reproduces EXPERIMENTS.md
   exactly. *)
let seed_offset = ref 0
let seed base = base + !seed_offset

(* --- BENCH_*.json artifacts --- *)

module Json = Rcons.Runtime.Json

(* A fixed-precision float field: rounded through [%.*f] so the artifact
   records [prec] decimals, not the measurement's full noise. *)
let fixed prec x = Json.Float (float_of_string (Printf.sprintf "%.*f" prec x))

let ints fields = List.map (fun (k, v) -> (k, Json.Int v)) fields

let write_json ~out j =
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* An unusable committed artifact is a usage error, as everywhere else
   in the repository: one stderr line, exit 2. *)
let die fmt = Format.kasprintf (fun msg -> prerr_endline msg; exit 2) fmt

(* The committed artifact [file]; [None] only when it does not exist. *)
let committed ~file =
  if not (Sys.file_exists file) then None
  else
    match Json.parse (In_channel.with_open_text file In_channel.input_all) with
    | Ok j -> Some j
    | Error msg -> die "corrupt committed artifact %s: %s" file msg
    | exception Sys_error msg -> die "cannot read committed artifact %s: %s" file msg

(* The number at [path] under [j] (read from [file]); [None] when some
   field on the path is absent -- a new workload has no floor yet. *)
let number ~file path j =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
  | None -> None
  | Some ((Json.Int _ | Json.Float _) as v) -> Some v
  | Some _ -> die "corrupt committed artifact %s: %s is not a number" file (String.concat "." path)
