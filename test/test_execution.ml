(* The columnar execution log against a plain list of events.

   [Execution] stores each process's events as columns and reads them in
   place; the model below keeps every event record in a list and answers
   each query the way the record-per-event log did. Random event
   sequences go into both, unbounded and as rings of 1–8 events, and
   every public reader must agree. On the same logs [Checker.check],
   which reads the columns through a cursor, must equal
   [Reference_checker.check], which reads the rebuilt records of
   [events_of]. The unit cases pin append order across chunk
   boundaries, the out-of-range reads, and counting, finding and
   folding. *)

module Execution = Dsm_runtime.Execution
module Checker = Dsm_runtime.Checker
module History = Dsm_memory.History
module Local_history = Dsm_memory.Local_history
module Operation = Dsm_memory.Operation
module Rng = Dsm_sim.Rng
module Sim_time = Dsm_sim.Sim_time
module Dot = Dsm_vclock.Dot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let dot r s = Dot.make ~replica:r ~seq:s
let t f = Sim_time.of_float f

(* ------------------------------------------------------------------ *)
(* The model: every event ever recorded, newest first                  *)
(* ------------------------------------------------------------------ *)

type model = {
  n : int;
  limit : int option;
  mutable rev : Execution.event list;
}

let rec drop k l =
  if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl

let window m l =
  match m.limit with
  | None -> l
  | Some c -> drop (List.length l - c) l

let m_events m = window m (List.rev m.rev)

let m_events_of m p =
  window m
    (List.filter (fun (e : Execution.event) -> e.proc = p) (List.rev m.rev))

let index_where f l =
  let rec go i = function
    | [] -> None
    | x :: tl -> if f x then Some i else go (i + 1) tl
  in
  go 0 l

let m_position m ~proc f =
  index_where (fun (e : Execution.event) -> f e.kind) (m_events_of m proc)

let m_time m ~proc f =
  Option.map
    (fun i -> (List.nth (m_events_of m proc) i).Execution.time)
    (m_position m ~proc f)

let is_apply d = function
  | Execution.Apply { dot; _ } -> Dot.equal dot d
  | _ -> false

let is_receipt d = function
  | Execution.Receipt { dot; _ } -> Dot.equal dot d
  | _ -> false

let is_skip d = function Execution.Skip { dot } -> Dot.equal dot d | _ -> false

let count f l = List.length (List.filter f l)

let m_writes m =
  List.filter_map
    (fun (e : Execution.event) ->
      match e.kind with
      | Apply { dot; var; value; _ } when Dot.replica dot = e.proc ->
          Some (dot, var, value)
      | _ -> None)
    (m_events m)
  |> List.rev
  |> List.sort (fun (a, _, _) (b, _, _) -> Dot.compare a b)

let m_latencies m =
  List.concat_map
    (fun proc ->
      let receipt_at = Hashtbl.create 16 in
      List.filter_map
        (fun (e : Execution.event) ->
          match e.kind with
          | Receipt { dot; _ } ->
              Hashtbl.replace receipt_at dot e.time;
              None
          | Apply { dot; _ } ->
              Option.map (Sim_time.diff e.time)
                (Hashtbl.find_opt receipt_at dot)
          | _ -> None)
        (m_events_of m proc))
    (List.init m.n Fun.id)

let m_history m =
  History.of_locals
    (List.init m.n (fun proc ->
         let lh = Local_history.create ~proc () in
         List.iter
           (fun (e : Execution.event) ->
             match e.kind with
             | Apply { dot; var; value; _ } when Dot.replica dot = proc ->
                 ignore (Local_history.add_write ~dot lh ~var ~value)
             | Return { var; value; read_from } ->
                 ignore (Local_history.add_read lh ~var ~value ~read_from)
             | _ -> ())
           (m_events_of m proc);
         lh))

(* ------------------------------------------------------------------ *)
(* Random event sequences                                              *)
(* ------------------------------------------------------------------ *)

(* Own writes are applied at their issuer in sequence order (each
   issuer with its own occupancy generation, often nonzero); remote
   applies name issued writes; reads return ⊥ or an issued write's
   value on its variable. Receipts, skips, blocks and sends sometimes
   name dots never written, and one event in 160 is a read that may
   name one, or a write on another variable, which the checkers refuse
   alike. Times never decrease and often tie. *)
let script ~seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 4 and m = 1 + Rng.int rng 3 in
  let len =
    if Rng.int rng 8 = 0 then 200 + Rng.int rng 1200 else Rng.int rng 60
  in
  let gen =
    Array.init n (fun _ -> if Rng.bool rng then 1 + Rng.int rng 3 else 0)
  in
  let next_seq = Array.make n 0 in
  let issued = ref [||] in
  let now = ref 0. in
  let out = ref [] in
  let emit proc kind = out := { Execution.proc; time = t !now; kind } :: !out in
  let any_dot () =
    if Array.length !issued > 0 && Rng.int rng 6 <> 0 then
      let d, _, _ = Rng.choice rng !issued in
      d
    else
      Dot.make_gen ~replica:(Rng.int rng n) ~gen:(Rng.int rng 3)
        ~seq:(1 + Rng.int rng 5)
  in
  for _ = 1 to len do
    if Rng.bool rng then now := !now +. Rng.float rng;
    let proc = Rng.int rng n in
    match Rng.int rng 40 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 ->
        next_seq.(proc) <- next_seq.(proc) + 1;
        let d =
          Dot.make_gen ~replica:proc ~gen:gen.(proc) ~seq:next_seq.(proc)
        in
        let var = Rng.int rng m and value = Rng.int rng 1000 in
        issued := Array.append !issued [| (d, var, value) |];
        emit proc (Apply { dot = d; var; value; delayed = false });
        emit proc (Send { dot = d; var; value })
    | 8 | 9 | 10 | 11 | 12 ->
        emit proc (Receipt { dot = any_dot (); src = Rng.int rng n })
    | 13 | 14 | 15 | 16 | 17 | 18 | 19 -> (
        match Array.length !issued with
        | 0 -> ()
        | _ ->
            (* never the issuer's own write again: that would be a
               second own apply, out of sequence *)
            let d, var, value = Rng.choice rng !issued in
            if Dot.replica d <> proc then
              emit proc (Apply { dot = d; var; value; delayed = Rng.bool rng }))
    | 20 | 21 -> emit proc (Skip { dot = any_dot () })
    | 22 | 23 ->
        emit proc (Blocked { dot = any_dot (); waiting_for = any_dot () })
    | 24 ->
        emit proc
          (Send
             { dot = any_dot (); var = Rng.int rng m; value = Rng.int rng 9 })
    | 25 when Rng.int rng 4 = 0 ->
        let read_from = if Rng.bool rng then Some (any_dot ()) else None in
        let value =
          if Rng.bool rng then Operation.Bot
          else Operation.Val (Rng.int rng 1000)
        in
        emit proc (Return { var = Rng.int rng m; value; read_from })
    | _ when Array.length !issued > 0 && Rng.int rng 3 > 0 ->
        let d, var, value = Rng.choice rng !issued in
        emit proc (Return { var; value = Val value; read_from = Some d })
    | _ ->
        emit proc
          (Return { var = Rng.int rng m; value = Bot; read_from = None })
  done;
  (n, m, List.rev !out)

(* half the events go through [record], the rest through the per-kind
   entry point for their kind *)
let record rng e (ev : Execution.event) =
  let proc = ev.proc and time = ev.time in
  if Rng.bool rng then Execution.record e ~proc ~time ev.kind
  else
    match ev.kind with
    | Send { dot; var; value } ->
        Execution.record_send e ~proc ~time dot ~var ~value
    | Receipt { dot; src } -> Execution.record_receipt e ~proc ~time dot ~src
    | Blocked { dot; waiting_for } ->
        Execution.record_blocked e ~proc ~time dot ~waiting_for
    | Apply { dot; var; value; delayed } ->
        Execution.record_apply e ~proc ~time dot ~var ~value ~delayed
    | Skip { dot } -> Execution.record_skip e ~proc ~time dot
    | Return { var; value; read_from } ->
        Execution.record_return e ~proc ~time ~var ~value ~read_from

let outcome f =
  match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

let fail fmt = Format.kasprintf failwith fmt

let agree what a b = if a <> b then fail "%s differs from the model" what

(* every public reader against the model *)
let compare_readers m e =
  agree "events" (Execution.events e) (m_events m);
  agree "event_count" (Execution.event_count e) (List.length (m_events m));
  agree "dropped_events" (Execution.dropped_events e)
    (List.length m.rev - List.length (m_events m));
  let all = m_events m in
  let global f = count (fun (ev : Execution.event) -> f ev.kind) all in
  agree "apply_count" (Execution.apply_count e)
    (global (function Apply _ -> true | _ -> false));
  agree "skip_count" (Execution.skip_count e)
    (global (function Skip _ -> true | _ -> false));
  agree "blocked_count" (Execution.blocked_count e)
    (global (function Blocked _ -> true | _ -> false));
  agree "delay_count" (Execution.delay_count e)
    (global (function Apply { delayed; _ } -> delayed | _ -> false));
  agree "delayed_applies" (Execution.delayed_applies e)
    (List.filter_map
       (fun (ev : Execution.event) ->
         match ev.kind with
         | Apply { dot; delayed = true; _ } -> Some (ev.proc, dot)
         | _ -> None)
       all);
  agree "blocked_events" (Execution.blocked_events e)
    (List.filter_map
       (fun (ev : Execution.event) ->
         match ev.kind with
         | Blocked { dot; waiting_for } ->
             Some (ev.proc, dot, waiting_for, ev.time)
         | _ -> None)
       all);
  agree "writes" (Execution.writes e) (m_writes m);
  agree "apply_latencies" (Execution.apply_latencies e) (m_latencies m);
  agree "to_history"
    (outcome (fun () -> History.ops (Execution.to_history e)))
    (outcome (fun () -> History.ops (m_history m)));
  for proc = 0 to m.n - 1 do
    let mine = m_events_of m proc in
    agree "events_of" (Execution.events_of e proc) mine;
    let seen = ref [] in
    Execution.iteri_of e proc (fun i ev -> seen := (i, ev) :: !seen);
    agree "iteri_of" (List.rev !seen) (List.mapi (fun i ev -> (i, ev)) mine);
    agree "apply_order" (Execution.apply_order e proc)
      (List.filter_map
         (fun (ev : Execution.event) ->
           match ev.kind with Apply { dot; _ } -> Some dot | _ -> None)
         mine);
    agree "delay_count_at" (Execution.delay_count_at e proc)
      (count
         (fun (ev : Execution.event) ->
           match ev.kind with Apply { delayed; _ } -> delayed | _ -> false)
         mine);
    (* every dot the process mentions, and one it never does *)
    let dots =
      Dot.make_gen ~replica:proc ~gen:7 ~seq:1
      :: List.filter_map
           (fun (ev : Execution.event) ->
             match ev.kind with
             | Send { dot; _ } | Receipt { dot; _ } | Blocked { dot; _ }
             | Apply { dot; _ } | Skip { dot } ->
                 Some dot
             | Return { read_from; _ } -> read_from)
           mine
    in
    List.iter
      (fun d ->
        agree "apply_position" (Execution.apply_position e ~proc ~dot:d)
          (m_position m ~proc (is_apply d));
        agree "receipt_position" (Execution.receipt_position e ~proc ~dot:d)
          (m_position m ~proc (is_receipt d));
        agree "skip_position" (Execution.skip_position e ~proc ~dot:d)
          (m_position m ~proc (is_skip d));
        agree "apply_time" (Execution.apply_time e ~proc ~dot:d)
          (m_time m ~proc (is_apply d));
        agree "receipt_time" (Execution.receipt_time e ~proc ~dot:d)
          (m_time m ~proc (is_receipt d)))
      dots
  done

let pp_report ppf = function
  | Ok r -> Checker.pp_report ppf r
  | Error e -> Format.fprintf ppf "raised %s" e

let run_model ~seed ~limit =
  let n, m, evs = script ~seed in
  let e = Execution.create ?capacity_limit:limit ~n ~m () in
  let model = { n; limit; rev = [] } in
  let rng = Rng.create (seed + 1) in
  List.iter
    (fun ev ->
      record rng e ev;
      model.rev <- ev :: model.rev)
    evs;
  compare_readers model e;
  let dense = outcome (fun () -> Checker.check e) in
  let reference = outcome (fun () -> Reference_checker.check e) in
  if dense <> reference then
    fail "checkers differ@.cursor:  %a@.records: %a" pp_report dense pp_report
      reference;
  true

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:string_of_int gen prop)

let prop_unbounded =
  qcheck_case "model, unbounded" QCheck2.Gen.(int_bound 1_000_000) (fun seed ->
      run_model ~seed ~limit:None)

let prop_ring =
  qcheck_case "model, rings of 1-8" QCheck2.Gen.(int_bound 1_000_000)
    (fun seed -> run_model ~seed ~limit:(Some (1 + (seed mod 8))))

(* ------------------------------------------------------------------ *)
(* Unit cases                                                          *)
(* ------------------------------------------------------------------ *)

let apply_ev proc s =
  { Execution.proc; time = t (float_of_int s);
    kind = Apply { dot = dot proc s; var = 0; value = s; delayed = false } }

(* past several 512-event chunks, with a ring and without; after every
   append, each process's oldest retained event is the right one *)
let test_append_order () =
  List.iter
    (fun limit ->
      let e = Execution.create ?capacity_limit:limit ~n:2 ~m:1 () in
      let evs = List.init 3000 (fun i -> apply_ev (i mod 2) ((i / 2) + 1)) in
      let keep = match limit with None -> 3000 | Some c -> c in
      List.iteri
        (fun i (ev : Execution.event) ->
          Execution.record e ~proc:ev.proc ~time:ev.time ev.kind;
          let c = Execution.Cursor.of_process e ev.proc in
          let recorded = (i / 2) + 1 in
          check_bool "an event" true (Execution.Cursor.next c);
          check_int "oldest retained"
            (max 1 (recorded - keep + 1))
            (Execution.Key.seq (Execution.Cursor.key c)))
        evs;
      check_int "length" keep (Execution.event_count e);
      check_bool "global order" true
        (Execution.events e = drop (3000 - keep) evs);
      let of0 = List.filter (fun (ev : Execution.event) -> ev.proc = 0) evs in
      check_bool "process order" true
        (Execution.events_of e 0 = drop (1500 - min keep 1500) of0);
      (* a cursor reads the same events in place *)
      let c = Execution.Cursor.of_process e 1 in
      let next = ref (1500 - min keep 1500 + 1) in
      while Execution.Cursor.next c do
        let s = Execution.Key.seq (Execution.Cursor.key c) in
        check_int "consecutive" !next s;
        check_int "position"
          (s - (1500 - min keep 1500) - 1)
          (Execution.Cursor.pos c);
        check_bool "time column" true
          (Execution.Cursor.time c = float_of_int s);
        incr next
      done;
      check_int "last event" 1501 !next)
    [ None; Some 700; Some 3 ]

let test_out_of_range () =
  let e = Execution.create ~n:2 ~m:1 () in
  Execution.record e ~proc:0 ~time:(t 0.) (apply_ev 0 1).kind;
  let raises name f =
    Alcotest.check_raises name
      (Invalid_argument ("Execution." ^ name ^ ": process id out of range"))
      (fun () -> ignore (f ()))
  in
  raises "events_of" (fun () -> Execution.events_of e 2);
  raises "iteri_of" (fun () -> Execution.iteri_of e (-1) (fun _ _ -> ()));
  raises "Cursor.of_process" (fun () -> Execution.Cursor.of_process e 2);
  raises "delay_count_at" (fun () -> Execution.delay_count_at e 5);
  (* a cursor past its last event stays there *)
  let c = Execution.Cursor.of_process e 0 in
  check_bool "one event" true (Execution.Cursor.next c);
  check_bool "then none" false (Execution.Cursor.next c);
  check_bool "still none" false (Execution.Cursor.next c);
  (* a dot wider than a key is refused, never truncated *)
  let wide name d =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf "Execution.Key.of_dot: %s does not fit a key"
            (Dot.to_string d)))
      (fun () -> Execution.record_skip e ~proc:0 ~time:(t 1.) d)
  in
  wide "replica" (Dot.make ~replica:(1 lsl 16) ~seq:1);
  wide "generation" (Dot.make_gen ~replica:0 ~gen:(1 lsl 14) ~seq:1);
  wide "sequence" (Dot.make ~replica:0 ~seq:(1 lsl 32));
  check_int "nothing recorded" 1 (Execution.event_count e);
  let d =
    Dot.make_gen ~replica:((1 lsl 16) - 1) ~gen:((1 lsl 14) - 1)
      ~seq:((1 lsl 32) - 1)
  in
  check_bool "the widest dot round-trips" true
    (Dot.equal d (Execution.Key.to_dot (Execution.Key.of_dot d)))

let test_count_find_fold () =
  let e = Execution.create ~n:1 ~m:1 () in
  List.iter
    (fun s ->
      Execution.record_receipt e ~proc:0 ~time:(t 0.) (dot 0 s) ~src:0;
      Execution.record_apply e ~proc:0 ~time:(t 1.) (dot 0 s) ~var:0 ~value:s
        ~delayed:(s mod 2 = 0))
    [ 1; 2; 3; 4; 5 ];
  check_int "count" 5 (Execution.apply_count e);
  check_int "count delayed" 2 (Execution.delay_count e);
  check_bool "find" true
    (Execution.apply_position e ~proc:0 ~dot:(dot 0 4) = Some 7);
  check_bool "find none" true
    (Execution.skip_position e ~proc:0 ~dot:(dot 0 4) = None);
  let c = Execution.Cursor.of_process e 0 in
  let sum = ref 0 in
  while Execution.Cursor.next c do
    if Execution.Cursor.tag c = Execution.Cursor.Apply then
      sum := !sum + Execution.Cursor.value c
  done;
  check_int "fold" 15 !sum

let () =
  Alcotest.run "execution"
    [
      ( "execution log",
        [
          Alcotest.test_case "append order" `Quick test_append_order;
          Alcotest.test_case "out-of-range reads raise" `Quick
            test_out_of_range;
          Alcotest.test_case "count, find and fold" `Quick
            test_count_find_fold;
          prop_unbounded;
          prop_ring;
        ] );
    ]
