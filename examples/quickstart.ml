(* Quickstart: the paper's worked example Ĥ₁, end to end.

   Three processes share two variables through the OptP protocol over a
   simulated network. We script the exact message timing of the paper's
   Figure 6, run it, print every process's event sequence, reconstruct
   the abstract history, and let the independent checker confirm that
   the run is causally consistent and that the single write delay it
   contains was necessary.

   Run with:  dune exec examples/quickstart.exe *)

module PS = Dsm_runtime.Paper_scenarios
module Execution = Dsm_runtime.Execution
module Checker = Dsm_runtime.Checker

let () =
  print_endline "== Quickstart: OptP on the paper's example history ==\n";

  (* 1. run OptP under the Figure 6 schedule *)
  let outcome = PS.run (module Dsm_core.Opt_p) PS.figure6 in
  print_endline "Per-process event sequences ('*' marks a delayed apply):";
  for proc = 0 to PS.n - 1 do
    Format.printf "  p%d: %a@." (proc + 1)
      (Execution.pp_process outcome.execution proc)
      ()
  done;

  print_endline "\nSpace-time diagram:";
  print_string (Dsm_runtime.Timeline.render ~width:64 outcome.execution);

  (* 2. the abstract history the run produced *)
  print_endline "\nReconstructed history:";
  let history = Execution.to_history outcome.execution in
  Format.printf "%a@." Dsm_memory.History.pp history;
  assert (PS.h1_matches history);
  print_endline "(matches the paper's H1 exactly)";

  (* 3. independent audit *)
  let report = Checker.check outcome.execution in
  Format.printf "\nChecker: %a@." Checker.pp_report report;
  assert (Checker.is_clean report);
  assert (report.unnecessary_delays = 0);

  (* 4. causal consistency, from first principles *)
  let co = Dsm_memory.Causal_order.compute history in
  Format.printf "Causally consistent: %b@."
    (Dsm_memory.Legality.is_causally_consistent co);

  (* 5. the Write_co timestamps that made it work *)
  let wv = Dsm_memory.Write_vectors.compute history in
  print_endline "\nWrite_co timestamps (Theorem 1: they characterize ↦co):";
  List.iter
    (fun (w : Dsm_memory.Operation.write) ->
      Format.printf "  %a.Write_co = %a@." Dsm_memory.Operation.pp
        (Dsm_memory.Operation.Write w) Dsm_vclock.Vector_clock.pp
        (Dsm_memory.Write_vectors.of_write wv w.wdot))
    (Dsm_memory.History.writes history)
