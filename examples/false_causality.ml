(* False causality, step by step.

   The paper's central observation (§3.6 and Figures 3/6): causal
   broadcast orders apply events by the happened-before relation of the
   sends, which is a strict superset of the cause-effect relation ↦co of
   the memory — so it delays writes that have no actual dependency.

   The witness is the write w2(x2)b of history Ĥ₁. Its issuer p2 had
   already APPLIED p1's second write w1(x1)c when it wrote b, but it
   never READ it:

   - ANBKH's Fidge–Mattern timestamp of b is [2,1,0] — "both writes of
     p1 precede me" — because the vector absorbed w1(x1)c at delivery;
   - OptP's Write_co of b is [1,1,0] — only the write p2 actually read.

   At p3, where c's message is slow, that one component is the
   difference between buffering b for 17 extra time units and applying
   it immediately after a.

   Run with:  dune exec examples/false_causality.exe *)

module PS = Dsm_runtime.Paper_scenarios
module Experiment = Dsm_runtime.Experiment
module Execution = Dsm_runtime.Execution
module Checker = Dsm_runtime.Checker
module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock

let show_run label p scenario =
  Printf.printf "---- %s ----\n" label;
  let outcome = PS.run p scenario in
  Format.printf "p3's sequence: %a@."
    (Execution.pp_process outcome.execution 2)
    ();
  let b_applied =
    Option.get (Execution.apply_time outcome.execution ~proc:2 ~dot:PS.w2b)
  in
  let b_received =
    Option.get (Execution.receipt_time outcome.execution ~proc:2 ~dot:PS.w2b)
  in
  Format.printf "b received at t=%a, applied at t=%a (buffered %.1f)@."
    Dsm_sim.Sim_time.pp b_received Dsm_sim.Sim_time.pp b_applied
    (Dsm_sim.Sim_time.diff b_applied b_received);
  let report = Checker.check outcome.execution in
  Format.printf "delays: %d necessary, %d unnecessary@.@."
    report.Checker.necessary_delays report.Checker.unnecessary_delays;
  outcome

let () =
  print_endline "== False causality: ANBKH vs OptP on the same pattern ==\n";

  (* ANBKH under the Figure 3 schedule *)
  let anbkh = show_run "ANBKH (Figure 3)" (module Dsm_core.Anbkh) PS.figure3 in

  (* the send timestamps ANBKH computed, recovered from the run *)
  let vt = Experiment.send_vectors anbkh.execution in
  Format.printf "ANBKH's timestamp of b: vt = %a   (claims c precedes b)@."
    V.pp (Dot.Map.find PS.w2b vt);

  (* OptP under the same message pattern (Figure 6) *)
  let optp = show_run "\nOptP (Figure 6)" (module Dsm_core.Opt_p) PS.figure6 in
  let wv =
    Dsm_memory.Write_vectors.compute (Execution.to_history optp.execution)
  in
  Format.printf "OptP's timestamp of b: Write_co = %a   (b depends only on a)@."
    V.pp (Dsm_memory.Write_vectors.of_write wv PS.w2b);

  (* the formal ground truth: b and c are concurrent *)
  let co = Dsm_memory.Causal_order.compute PS.h1_reference in
  Format.printf "@.Ground truth: w1(x1)c ∥co w2(x2)b? %b@."
    (Dsm_memory.Causal_order.write_concurrent co PS.w1c PS.w2b);
  print_endline
    "\nBoth protocols had to hold b until a arrived; ANBKH additionally \
     held it for c — compare the buffered times above. That extension \
     is false causality: the optimality criterion (Definition 5) allows \
     delaying b only behind writes in its ↦co-past, and c is not in it. \
     (Under the Figure 2 pattern, where a is already applied when b \
     arrives, ANBKH's whole delay is classified unnecessary — run \
     'dune exec bench/main.exe -- --only F2' to see it.) OptP is \
     exactly the protocol the criterion prescribes."
