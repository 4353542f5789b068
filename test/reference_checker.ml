(* The pre-index auditor, kept verbatim as the test-side oracle for
   [Dsm_runtime.Checker]: per-receipt snapshots of the applied marks,
   [Dot.Map] lookups, and a scan of every write on a variable per read
   and of every write per apply under partial replication. Slow, but
   each property is checked the way it is stated, so [Checker.check]
   must return a structurally equal report on every execution. *)

module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock
module History = Dsm_memory.History
module Operation = Dsm_memory.Operation
module Write_vectors = Dsm_memory.Write_vectors
module Execution = Dsm_runtime.Execution
module Checker = Dsm_runtime.Checker

type violation = Checker.violation =
  | Safety of { proc : int; applied : Dot.t; missing : Dot.t }
  | Illegal_read of { proc : int; detail : string }
  | Immediate_apply_marked_delayed of { proc : int; dot : Dot.t }

type delay_class = Checker.delay_class = Necessary | Unnecessary

type delay = Checker.delay = {
  dproc : int;
  ddot : Dot.t;
  dclass : delay_class;
  dblocking : Dot.t list;
}

type report = Checker.report = {
  total_applies : int;
  total_delays : int;
  necessary_delays : int;
  unnecessary_delays : int;
  delays : delay list;
  delays_per_proc : int array;
  violations : violation list;
  complete : bool;
  missing : (int * Dot.t) list;
  lost : (int * Dot.t) list;
  skipped : int;
}

let check ?replication ?expected ?floor exec =
  let history = Execution.to_history ?floor exec in
  let wv = Write_vectors.compute ?floor history in
  let n = Execution.n_processes exec in
  (* windowed mode: per-issuer counts below the floor were applied
     everywhere before the window opened (the convergence barrier that
     closed the previous window), so every audit baseline starts there *)
  let floor_at j = match floor with None -> 0 | Some f -> V.get0 f j in
  let below_floor d = Dot.seq d <= floor_at (Dot.replica d) in
  let all_writes = History.writes history in
  let writes_by_var = Hashtbl.create 16 in
  List.iter
    (fun (w : Operation.write) ->
      let cur = Option.value (Hashtbl.find_opt writes_by_var w.wvar) ~default:[] in
      Hashtbl.replace writes_by_var w.wvar (w :: cur))
    all_writes;
  let violations = ref [] in
  let delays = ref [] in
  let delays_per_proc = Array.make n 0 in
  let applied_at = Array.init n (fun _ -> Hashtbl.create 64) in
  let replicated ~proc ~var =
    match replication with None -> true | Some f -> f ~proc ~var
  in
  (* membership filter for completeness: under dynamic membership, only
     processes expected to hold a write (live members at the end of the
     run, for writes issued while they were in the view) owe an apply *)
  let expected_at ~proc ~dot =
    match expected with None -> true | Some f -> f ~proc ~dot
  in
  (* var of every write, for replication filtering *)
  let var_of_dot = Hashtbl.create 64 in
  List.iter
    (fun (w : Operation.write) -> Hashtbl.replace var_of_dot w.wdot w.wvar)
    all_writes;
  (* audit one process's event sequence *)
  let audit proc =
    let events = Array.of_list (Execution.events_of exec proc) in
    (* per-issuer logically-applied high mark, from the floor up *)
    let cnt = Array.init n floor_at in
    (* snapshot of [cnt] taken at each receipt, for delay classification *)
    let receipt_snapshot = Hashtbl.create 64 in
    let receipt_pos = Hashtbl.create 64 in
    let read_slot = ref 0 in
    let record_logical_apply d =
      let j = Dot.replica d in
      if Dot.seq d > cnt.(j) then cnt.(j) <- Dot.seq d
    in
    (* partial mode records each apply's position for the exact check *)
    let apply_pos = Hashtbl.create 64 in
    let in_past vec d =
      (* d ↦co the write whose ground-truth vector is vec (Cor. 1) *)
      Dot.seq d <= V.get vec (Dot.replica d)
    in
    let check_safety_full dot vec =
      let issuer = Dot.replica dot in
      for j = 0 to n - 1 do
        let need = if j = issuer then V.get vec j - 1 else V.get vec j in
        if cnt.(j) < need then
          violations :=
            Safety
              {
                proc;
                applied = dot;
                missing = Dot.make ~replica:j ~seq:(cnt.(j) + 1);
              }
            :: !violations
      done
    in
    (* exact (and slower) form used under partial replication: every
       write in the causal past on a location this process replicates
       must already be applied here *)
    let check_safety_partial dot vec =
      List.iter
        (fun (w' : Operation.write) ->
          if
            (not (Dot.equal w'.wdot dot))
            && in_past vec w'.wdot
            && replicated ~proc ~var:w'.wvar
            && not (Hashtbl.mem apply_pos w'.wdot)
          then
            violations :=
              Safety { proc; applied = dot; missing = w'.wdot }
              :: !violations)
        all_writes
    in
    let check_safety ~pos:_ dot vec =
      match replication with
      | None -> check_safety_full dot vec
      | Some _ -> check_safety_partial dot vec
    in
    let classify_delay ~pos dot vec =
      let issuer = Dot.replica dot in
      match Hashtbl.find_opt receipt_snapshot dot with
      | None ->
          (* a delayed apply without receipt can only be a driver bug *)
          violations :=
            Immediate_apply_marked_delayed { proc; dot } :: !violations
      | Some snap ->
          (match Hashtbl.find_opt receipt_pos dot with
          | Some rp when rp + 1 = pos ->
              (* applied in the very step that received it: not a delay *)
              violations :=
                Immediate_apply_marked_delayed { proc; dot } :: !violations
          | Some _ | None -> ());
          let blocking = ref [] in
          (match replication with
          | None ->
              for j = n - 1 downto 0 do
                let need =
                  if j = issuer then V.get vec j - 1 else V.get vec j
                in
                for s = snap.(j) + 1 to need do
                  blocking := Dot.make ~replica:j ~seq:s :: !blocking
                done
              done
          | Some _ ->
              (* blocking = replicated causal predecessors not yet
                 applied at receipt time *)
              let rpos =
                Option.value (Hashtbl.find_opt receipt_pos dot)
                  ~default:max_int
              in
              List.iter
                (fun (w' : Operation.write) ->
                  if
                    (not (Dot.equal w'.wdot dot))
                    && in_past vec w'.wdot
                    && replicated ~proc ~var:w'.wvar
                    &&
                    match Hashtbl.find_opt apply_pos w'.wdot with
                    | Some p' -> p' > rpos
                    | None -> true
                  then blocking := w'.wdot :: !blocking)
                all_writes);
          let dclass = if !blocking = [] then Unnecessary else Necessary in
          delays_per_proc.(proc) <- delays_per_proc.(proc) + 1;
          delays :=
            { dproc = proc; ddot = dot; dclass; dblocking = !blocking }
            :: !delays
    in
    let check_read ~var ~read_from =
      let rvec = Write_vectors.of_read wv ~proc ~slot:!read_slot in
      let candidates =
        Option.value (Hashtbl.find_opt writes_by_var var) ~default:[]
      in
      let in_read_past (w : Operation.write) =
        Dot.seq w.wdot <= V.get rvec (Dot.replica w.wdot)
      in
      match read_from with
      | None ->
          List.iter
            (fun (w : Operation.write) ->
              if in_read_past w then
                violations :=
                  Illegal_read
                    {
                      proc;
                      detail =
                        Format.asprintf
                          "read of x%d returned ⊥ although %a causally \
                           precedes it"
                          (var + 1) Dot.pp w.wdot;
                    }
                  :: !violations)
            candidates
      | Some d ->
          List.iter
            (fun (w : Operation.write) ->
              if
                (not (Dot.equal w.wdot d))
                && in_read_past w
                && (* a compacted write from an earlier window precedes
                      every window write: the barrier that closed its
                      window made it part of everyone's causal past *)
                (below_floor d || Write_vectors.write_precedes wv d w.wdot)
              then
                violations :=
                  Illegal_read
                    {
                      proc;
                      detail =
                        Format.asprintf
                          "read of x%d from %a is stale: %a is causally \
                           interposed"
                          (var + 1) Dot.pp d Dot.pp w.wdot;
                    }
                  :: !violations)
            candidates
    in
    Array.iteri
      (fun pos (e : Execution.event) ->
        match e.kind with
        | Execution.Receipt { dot; _ } ->
            Hashtbl.replace receipt_snapshot dot (Array.copy cnt);
            Hashtbl.replace receipt_pos dot pos
        | Execution.Apply { dot; delayed; _ } ->
            let vec = Write_vectors.of_write wv dot in
            check_safety ~pos dot vec;
            if delayed then classify_delay ~pos dot vec;
            record_logical_apply dot;
            Hashtbl.replace apply_pos dot pos;
            Hashtbl.replace applied_at.(proc) dot ()
        | Execution.Skip { dot } ->
            (* a writing-semantics logical apply: counted for ordering
               but intentionally unordered w.r.t. its own causal past *)
            record_logical_apply dot
        | Execution.Return { var; read_from; _ } ->
            check_read ~var ~read_from;
            incr read_slot
        | Execution.Send _ | Execution.Blocked _ -> ())
      events
  in
  for proc = 0 to n - 1 do
    audit proc
  done;
  let missing =
    List.concat_map
      (fun (w : Operation.write) ->
        List.filter_map
          (fun proc ->
            if
              Hashtbl.mem applied_at.(proc) w.wdot
              || (not (replicated ~proc ~var:w.wvar))
              || not (expected_at ~proc ~dot:w.wdot)
            then None
            else Some (proc, w.wdot))
          (List.init n Fun.id))
      all_writes
  in
  (* a missing apply is benign only if it was a writing-semantics skip;
     anything else is a lost write — a liveness failure *)
  let lost =
    List.filter
      (fun (proc, dot) ->
        Execution.skip_position exec ~proc ~dot = None)
      missing
  in
  let delays = List.rev !delays in
  let necessary =
    List.length (List.filter (fun d -> d.dclass = Necessary) delays)
  in
  {
    total_applies = Execution.apply_count exec;
    total_delays = List.length delays;
    necessary_delays = necessary;
    unnecessary_delays = List.length delays - necessary;
    delays;
    delays_per_proc;
    violations = List.rev !violations;
    complete = missing = [];
    missing;
    lost;
    skipped = Execution.skip_count exec;
  }
