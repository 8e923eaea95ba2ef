(* Command line of the benchmark: run one workload for one seed and
   print a provenance line, an info line and, last, the result line.
   Each part of the workload runs in child processes of its own: the
   main part in [Bench.main_processes] of them ([--part main]; one when
   traced), then the other part in one ([--part other]).  A failed
   correctness check prints a diagnosis on stderr, no result, and exits
   1. *)

open Rcons_perfbench
module Json = Rcons.Runtime.Json

let line j = print_endline (Json.to_string ~indent:0 j)

(* Run one part in a fresh process and read its result line. *)
let child args role =
  let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--part"; role ]) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match List.rev (String.split_on_char '\n' (String.trim out)) with
      | last :: _ -> Bench.of_json (Json.parse_exn last)
      | [] -> Util.fail "the %s part printed no result" role)
  | _ -> exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and part = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--part", Arg.Set_string part, "main|other run one part only (used internally)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
        exit 2
  in
  let trace = !trace <> 0 in
  let run_part role =
    Bench.run_part w ~role ~seed:!seed ~seconds:(float_of_int !seconds) ~trace
  in
  try
    match !part with
    | "main" -> line (Bench.to_json (run_part Bench.Main))
    | "other" -> line (Bench.to_json (run_part Bench.Other))
    | "" ->
        let args =
          [
            "--workload"; w.Workload.name; "--seed"; string_of_int !seed;
            "--seconds"; string_of_int !seconds; "--trace"; (if trace then "1" else "0");
          ]
        in
        let mains = List.init (if trace then 1 else Bench.main_processes) (fun _ -> child args "main") in
        let other = child args "other" in
        let attempted, metrics, info = Bench.combine w ~trace mains other in
        line (Json.Obj [ ("provenance", Bench.provenance w ~seed:!seed ~seconds:!seconds ~trace) ]);
        line (Json.Obj [ ("info", Bench.info_json info) ]);
        line
          (Json.Obj
             [
               ("correct", Json.Bool true);
               ("attempted", Json.Int attempted);
               ("failed", Json.Int 0);
               ("metrics", Bench.metrics_json metrics);
             ])
    | p ->
        Printf.eprintf "unknown part %S (main or other)\n" p;
        exit 2
  with Util.Check_failed msg ->
    prerr_endline ("check failed: " ^ msg);
    exit 1
