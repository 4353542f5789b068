(* Benchmark entry point; see README.md in this directory.

   perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a human-readable report, then one JSON result line. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match Perfbench.Workload.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", "
             (List.map (fun w -> w.Perfbench.Workload.name) Perfbench.Workload.all));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if !seconds <= 0. then (prerr_endline "--seconds must be positive"; exit 2);
  let module M = Perfbench.Measure in
  let r =
    if !trace = 0 then
      M.end_to_end (module Dsm_core.Opt_p) w ~seed:!seed ~seconds:!seconds
    else M.traced w ~seed:!seed ~seconds:!seconds
  in
  print_endline (M.to_json r)
