module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock
module History = Dsm_memory.History
module Operation = Dsm_memory.Operation
module Write_vectors = Dsm_memory.Write_vectors
module Key = Execution.Key
module Cursor = Execution.Cursor

type violation =
  | Safety of { proc : int; applied : Dot.t; missing : Dot.t }
  | Illegal_read of { proc : int; detail : string }
  | Immediate_apply_marked_delayed of { proc : int; dot : Dot.t }

type delay_class = Necessary | Unnecessary

type delay = {
  dproc : int;
  ddot : Dot.t;
  dclass : delay_class;
  dblocking : Dot.t list;
}

type report = {
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

(* Every per-event lookup goes through one dense index over the
   window's writes, built once per audit: write [w] is the [w]-th of
   [History.writes] (issuer, then sequence order), and issuer [j]'s
   writes occupy [first.(j) .. first.(j+1) - 1] with sequence numbers
   [base.(j) + 1 ..]. Positions are global — process [p]'s events are
   numbered after all events of processes [0 .. p-1] — so a per-write
   position stamped while auditing an earlier process reads as "not at
   this process" ([< off]) and no table is ever cleared. *)
let check ?replication ?expected ?floor exec =
  let history = Execution.to_history ?floor exec in
  let wv = Write_vectors.compute ?floor history in
  let n = Execution.n_processes exec in
  (* windowed mode: per-issuer counts below the floor were applied
     everywhere before the window opened (the convergence barrier that
     closed the previous window), so every audit baseline starts there *)
  let floor_at j = match floor with None -> 0 | Some f -> V.get0 f j in
  let below_floor k = Key.seq k <= floor_at (Key.replica k) in
  let base = Array.init n floor_at in
  let writes = Array.of_list (History.writes history) in
  let nw = Array.length writes in
  let wdot = Array.map (fun (w : Operation.write) -> w.wdot) writes in
  let wkey = Array.map Key.of_dot wdot in
  let wvar = Array.map (fun (w : Operation.write) -> w.wvar) writes in
  (* every vector below is one of [wv]'s, [n] wide at least, and every
     component read is a process id: [V.unsafe_get] stays in range *)
  let wvec = Array.map (Write_vectors.shared_of_write wv) wdot in
  let first = Array.make (n + 1) 0 in
  Array.iter
    (fun d ->
      let j = Dot.replica d in
      first.(j + 1) <- first.(j + 1) + 1)
    wdot;
  for j = 0 to n - 1 do
    first.(j + 1) <- first.(j + 1) + first.(j)
  done;
  (* index of issuer [j]'s write [s]; [s] in [base.(j) .. last] gives
     [first.(j) - 1 .. first.(j+1) - 1] *)
  let at j s = first.(j) + s - base.(j) - 1 in
  let index_of k =
    let j = Key.replica k in
    if j >= n then -1
    else
      let w = at j (Key.seq k) in
      if w >= first.(j) && w < first.(j + 1) && wkey.(w) = k then w else -1
  in
  (* the indices of each variable's writes, ascending, so by issuer:
     issuer [j]'s writes on [x] sit at [seg.(x).(j) .. seg.(x).(j+1) - 1]
     of [by_var.(x)] *)
  let nvars = Array.fold_left (fun acc x -> max acc (x + 1)) 0 wvar in
  let count = Array.make nvars 0 in
  Array.iter (fun x -> count.(x) <- count.(x) + 1) wvar;
  let by_var = Array.map (fun c -> Array.make c 0) count in
  let seg = Array.init nvars (fun _ -> Array.make (n + 1) 0) in
  Array.fill count 0 nvars 0;
  Array.iteri
    (fun w x ->
      by_var.(x).(count.(x)) <- w;
      count.(x) <- count.(x) + 1;
      seg.(x).(Dot.replica wdot.(w) + 1) <- count.(x))
    wvar;
  (* an issuer with no write on [x] ends where the one before it did *)
  Array.iter
    (fun s ->
      for j = 1 to n do
        s.(j) <- max s.(j) s.(j - 1)
      done)
    seg;
  (* last position in [lo .. hi - 1] of [xs] holding an index [<= bound],
     or [lo - 1] *)
  let last_le xs ~lo ~hi bound =
    let lo = ref lo and up = ref hi in
    while !lo < !up do
      let mid = (!lo + !up) / 2 in
      if xs.(mid) <= bound then lo := mid + 1 else up := mid
    done;
    !lo - 1
  in
  let replicated ~proc ~var =
    match replication with None -> true | Some f -> f ~proc ~var
  in
  (* membership filter for completeness: under dynamic membership, only
     processes expected to hold a write (live members at the end of the
     run, for writes issued while they were in the view) owe an apply *)
  let expected_at ~proc ~dot =
    match expected with None -> true | Some f -> f ~proc ~dot
  in
  let violations = ref [] in
  let violation v = violations := v :: !violations in
  let delays = ref [] in
  let delays_per_proc = Array.make n 0 in
  let missing = ref [] in
  let applies = ref 0 and skips = ref 0 in
  (* scratch shared by every process's audit *)
  let cnt = Array.make n 0 in
  let reach = Array.make nw 0 in
  let receipt_at = Array.make nw (-1) in
  let applied_at = Array.make nw (-1) in
  let skipped_at = Array.make nw (-1) in
  let partial = replication <> None in
  let rep = Array.make (if partial then nw else 0) false in
  let pref = Array.make n 0 in
  let offset = ref 0 in
  (* audit one process's event sequence *)
  let audit proc =
    let off = !offset in
    (* per-issuer logically-applied high mark, from the floor up;
       [reach.(at j s)] is the position where it first reached [s] *)
    Array.blit base 0 cnt 0 n;
    (* partial mode: [pref.(j)] is issuer [j]'s first replicated write
       not yet applied here *)
    let advance j =
      while
        pref.(j) < first.(j + 1)
        && ((not rep.(pref.(j))) || applied_at.(pref.(j)) >= off)
      do
        pref.(j) <- pref.(j) + 1
      done
    in
    if partial then begin
      for w = 0 to nw - 1 do
        rep.(w) <- replicated ~proc ~var:wvar.(w)
      done;
      for j = 0 to n - 1 do
        pref.(j) <- first.(j);
        advance j
      done
    end;
    let read_slot = ref 0 in
    let record_logical_apply k g =
      let j = Key.replica k in
      let s = Key.seq k in
      if s > cnt.(j) then begin
        for w = at j (cnt.(j) + 1) to min (at j s) (first.(j + 1) - 1) do
          reach.(w) <- g
        done;
        cnt.(j) <- s
      end
    in
    let check_safety_full dot vec =
      let issuer = Dot.replica dot in
      for j = 0 to n - 1 do
        let need = V.unsafe_get vec j - if j = issuer then 1 else 0 in
        if cnt.(j) < need then
          violation
            (Safety
               {
                 proc;
                 applied = dot;
                 missing = Dot.make ~replica:j ~seq:(cnt.(j) + 1);
               })
      done
    in
    (* exact form used under partial replication: every write in the
       causal past on a location this process replicates must already
       be applied here; issuer [j]'s writes before [pref.(j)] are *)
    let check_safety_partial w dot vec =
      for j = 0 to n - 1 do
        for w' = pref.(j) to at j (V.unsafe_get vec j) do
          if w' <> w && rep.(w') && applied_at.(w') < off then
            violation (Safety { proc; applied = dot; missing = wdot.(w') })
        done
      done
    in
    let classify_delay w g dot vec =
      let r = receipt_at.(w) in
      if r < off then
        (* a delayed apply without receipt can only be a driver bug *)
        violation (Immediate_apply_marked_delayed { proc; dot })
      else begin
        if r + 1 = g then
          (* applied in the very step that received it: not a delay *)
          violation (Immediate_apply_marked_delayed { proc; dot });
        let blocking = ref [] in
        (if not partial then
           (* causal predecessors not logically applied at the receipt:
              [cnt] had not reached them by then, so they form a
              suffix of each issuer's needed range *)
           let issuer = Dot.replica dot in
           for j = n - 1 downto 0 do
             let need = V.unsafe_get vec j - if j = issuer then 1 else 0 in
             let lo = ref (need + 1) in
             while
               !lo - 1 > base.(j)
               && (!lo - 1 > cnt.(j) || reach.(at j (!lo - 1)) > r)
             do
               decr lo
             done;
             for s = !lo to need do
               blocking := Dot.make ~replica:j ~seq:s :: !blocking
             done
           done
         else
           (* blocking = replicated causal predecessors not yet applied
              at receipt time *)
           for j = 0 to n - 1 do
             for w' = first.(j) to at j (V.unsafe_get vec j) do
               if
                 w' <> w && rep.(w')
                 && (applied_at.(w') < off || applied_at.(w') > r)
               then blocking := wdot.(w') :: !blocking
             done
           done);
        let dclass = if !blocking = [] then Unnecessary else Necessary in
        delays_per_proc.(proc) <- delays_per_proc.(proc) + 1;
        delays :=
          { dproc = proc; ddot = dot; dclass; dblocking = !blocking }
          :: !delays
      end
    in
    (* the writes on [var] in the read's causal past are, per issuer, a
       prefix of that issuer's writes on [var] (positions [.. i] of
       [xs] down to the issuer's first); the ones [d] precedes are a
       suffix of that prefix (↦co is monotone along process order), so
       each issuer's are listed from its latest down *)
    let rec bot_read ~var xs ~lo i =
      if i >= lo then begin
        violation
          (Illegal_read
             {
               proc;
               detail =
                 Format.asprintf
                   "read of x%d returned ⊥ although %a causally precedes it"
                   (var + 1) Dot.pp wdot.(xs.(i));
             });
        bot_read ~var xs ~lo (i - 1)
      end
    in
    let rec stale_read ~var k xs ~lo i =
      if i >= lo then
        let w = xs.(i) in
        if wkey.(w) = k then stale_read ~var k xs ~lo (i - 1)
        else if
          (* a compacted write from an earlier window precedes every
             window write: the barrier that closed its window made it
             part of everyone's causal past *)
          below_floor k || Key.seq k <= V.unsafe_get wvec.(w) (Key.replica k)
        then begin
          violation
            (Illegal_read
               {
                 proc;
                 detail =
                   Format.asprintf
                     "read of x%d from %a is stale: %a is causally \
                      interposed"
                     (var + 1) Dot.pp (Key.to_dot k) Dot.pp wdot.(w);
               });
          stale_read ~var k xs ~lo (i - 1)
        end
    in
    (* [read_from] is a key, or [Key.none] for ⊥ *)
    let check_read ~var ~read_from =
      let rvec = Write_vectors.shared_of_read wv ~proc ~slot:!read_slot in
      if var >= 0 && var < nvars then
        let xs = by_var.(var) and seg = seg.(var) in
        for j = n - 1 downto 0 do
          let lo = seg.(j) and hi = seg.(j + 1) in
          if lo < hi then
            let i = last_le xs ~lo ~hi (at j (V.unsafe_get rvec j)) in
            if read_from = Key.none then bot_read ~var xs ~lo i
            else stale_read ~var read_from xs ~lo i
        done
    in
    let c = Cursor.of_process exec proc in
    let len = ref 0 in
    while Cursor.next c do
      let pos = Cursor.pos c in
      let g = off + pos in
      len := pos + 1;
      match Cursor.tag c with
      | Receipt ->
          let w = index_of (Cursor.key c) in
          if w >= 0 then receipt_at.(w) <- g
      | Apply ->
          incr applies;
          let k = Cursor.key c in
          let w = index_of k in
          (* as [Write_vectors.of_write] for a write not in the history *)
          if w < 0 then raise Not_found;
          let dot = wdot.(w) in
          let vec = wvec.(w) in
          if partial then check_safety_partial w dot vec
          else check_safety_full dot vec;
          if Cursor.delayed c then classify_delay w g dot vec;
          record_logical_apply k g;
          applied_at.(w) <- g;
          if partial && pref.(Key.replica k) = w then advance (Key.replica k)
      | Skip ->
          (* a writing-semantics logical apply: counted for ordering
             but intentionally unordered w.r.t. its own causal past *)
          incr skips;
          let k = Cursor.key c in
          record_logical_apply k g;
          let w = index_of k in
          if w >= 0 then skipped_at.(w) <- g
      | Return ->
          check_read ~var:(Cursor.var c) ~read_from:(Cursor.key c);
          incr read_slot
      | Send | Blocked -> ()
    done;
    (* this process's missing applies, each lost unless it was a
       writing-semantics skip — anything else is a liveness failure *)
    for w = 0 to nw - 1 do
      if
        applied_at.(w) < off
        && replicated ~proc ~var:wvar.(w)
        && expected_at ~proc ~dot:wdot.(w)
      then missing := (w, proc, skipped_at.(w) < off) :: !missing
    done;
    offset := off + !len
  in
  for proc = 0 to n - 1 do
    audit proc
  done;
  (* write order, then process order *)
  let missing =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> compare a b)
      (List.rev !missing)
  in
  let delays = List.rev !delays in
  let necessary =
    List.length (List.filter (fun d -> d.dclass = Necessary) delays)
  in
  (* a ring-bounded log drops events from the global trace first, and
     the totals have always been the global trace's *)
  let ring = Execution.dropped_events exec > 0 in
  {
    total_applies = (if ring then Execution.apply_count exec else !applies);
    total_delays = List.length delays;
    necessary_delays = necessary;
    unnecessary_delays = List.length delays - necessary;
    delays;
    delays_per_proc;
    violations = List.rev !violations;
    complete = missing = [];
    missing = List.map (fun (w, proc, _) -> (proc, wdot.(w))) missing;
    lost =
      List.filter_map
        (fun (w, proc, lost) -> if lost then Some (proc, wdot.(w)) else None)
        missing;
    skipped = (if ring then Execution.skip_count exec else !skips);
  }

let is_clean r = r.violations = [] && r.lost = []

let pp_violation ppf = function
  | Safety { proc; applied; missing } ->
      Format.fprintf ppf
        "SAFETY at p%d: %a applied before causal predecessor %a" (proc + 1)
        Dot.pp applied Dot.pp missing
  | Illegal_read { proc; detail } ->
      Format.fprintf ppf "LEGALITY at p%d: %s" (proc + 1) detail
  | Immediate_apply_marked_delayed { proc; dot } ->
      Format.fprintf ppf
        "ACCOUNTING at p%d: %a marked delayed but applied at its receipt"
        (proc + 1) Dot.pp dot

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>applies=%d delays=%d (necessary=%d, unnecessary=%d) skips=%d \
     complete=%b lost=%d@,violations=%d%a@]"
    r.total_applies r.total_delays r.necessary_delays r.unnecessary_delays
    r.skipped r.complete (List.length r.lost)
    (List.length r.violations)
    (fun ppf vs ->
      List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v) vs)
    r.violations
