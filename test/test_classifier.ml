(* Tests for gigaflow.classifier: Linear, TSS, NuevoMatch, Searcher. *)

open Helpers
module Entry = Gf_classifier.Entry
module Linear = Gf_classifier.Linear
module Tss = Gf_classifier.Tss
module Nm = Gf_classifier.Nuevomatch
module Searcher = Gf_classifier.Searcher

(* Build the same entries into every classifier. *)
let random_entries rng n =
  List.init n (fun key ->
      let action = Gf_pipeline.Action.output key in
      let rule = pool_rule rng ~id:key ~action in
      Entry.v ~key ~fmatch:rule.Gf_pipeline.Ofrule.fmatch
        ~priority:rule.Gf_pipeline.Ofrule.priority key)

let winner_key : 'a. 'a Entry.t option -> int = function
  | None -> -1
  | Some e -> e.Entry.key

let test_entry_better () =
  let fm = Fmatch.any in
  let a = Entry.v ~key:1 ~fmatch:fm ~priority:5 () in
  let b = Entry.v ~key:2 ~fmatch:fm ~priority:5 () in
  let c = Entry.v ~key:3 ~fmatch:fm ~priority:7 () in
  Alcotest.(check bool) "priority wins" true (Entry.better c a);
  Alcotest.(check bool) "tie to lower key" true (Entry.better a b);
  Alcotest.(check bool) "not better than self" false (Entry.better a a)

let agreement_prop name lookup_b =
  QCheck2.Test.make ~name ~count:60
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 120))
    (fun (seed, n) ->
      let rng = Gf_util.Rng.create seed in
      let entries = random_entries rng n in
      let lin = Linear.create () in
      List.iter (Linear.insert lin) entries;
      let other = lookup_b entries in
      let ok = ref true in
      for _ = 1 to 50 do
        let flow = pool_flow rng in
        let expected, _ = Linear.lookup lin flow in
        let got = other flow in
        if winner_key expected <> winner_key got then ok := false
      done;
      !ok)

let prop_tss_agrees_linear =
  agreement_prop "tss = linear reference" (fun entries ->
      let t = Tss.create () in
      List.iter (Tss.insert t) entries;
      fun flow -> fst (Tss.lookup t flow))

let prop_nm_agrees_linear =
  agreement_prop "nuevomatch = linear reference" (fun entries ->
      let t = Nm.create () in
      List.iter (Nm.insert t) entries;
      Nm.retrain t;
      fun flow -> fst (Nm.lookup t flow))

let prop_nm_untrained_agrees =
  agreement_prop "nuevomatch (delta only) = linear" (fun entries ->
      let t = Nm.create () in
      List.iter (Nm.insert t) entries;
      fun flow -> fst (Nm.lookup t flow))

let removal_prop name create insert remove lookup =
  QCheck2.Test.make ~name ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let entries = random_entries rng 80 in
      let t = create () in
      List.iter (insert t) entries;
      (* Remove half the keys. *)
      List.iteri
        (fun i (e : int Entry.t) -> if i mod 2 = 0 then assert (remove t e.Entry.key))
        entries;
      let lin = Linear.create () in
      List.iteri (fun i e -> if i mod 2 = 1 then Linear.insert lin e) entries;
      let ok = ref true in
      for _ = 1 to 50 do
        let flow = pool_flow rng in
        if winner_key (fst (Linear.lookup lin flow)) <> winner_key (lookup t flow) then
          ok := false
      done;
      !ok)

let prop_tss_removal =
  removal_prop "tss after removals = linear" Tss.create Tss.insert Tss.remove
    (fun t flow -> fst (Tss.lookup t flow))

let prop_nm_removal =
  removal_prop "nuevomatch after removals = linear"
    (fun () ->
      let t = Nm.create () in
      t)
    Nm.insert Nm.remove
    (fun t flow -> fst (Nm.lookup t flow))

let prop_nm_removal_trained =
  removal_prop "nuevomatch (trained) after removals = linear"
    (fun () -> Nm.create ())
    (fun t e ->
      Nm.insert t e;
      if Nm.size t = 80 then Nm.retrain t)
    Nm.remove
    (fun t flow -> fst (Nm.lookup t flow))

(* Both TSS walks against a linear-scan reference, on the winner and on
   the probe count, across random inserts and removes.
   - [lookup]: group the live entries by mask, order the groups by
     decreasing maximum priority and then by mask, and probe until the
     winner strictly out-prioritises the next group.
   - [lookup_first]: a second classifier holds a pairwise-disjoint subset
     (at most one entry can match); its tuples rank in creation order and
     a hit promotes its tuple to the front. *)
let prop_tss_walks_reference =
  QCheck2.Test.make ~name:"tss walks = linear reference (winner, probes)" ~count:50
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let all = Tss.create () and disjoint = Tss.create () in
      let live = ref [] and live_disjoint = ref [] and rank = ref [] in
      let mask_of (e : int Entry.t) = Fmatch.mask e.Entry.fmatch in
      let drop key l = List.filter (fun (e : int Entry.t) -> e.Entry.key <> key) l in
      let ok = ref true in
      let check_lookup flow =
        let groups =
          List.sort_uniq Mask.compare (List.map mask_of !live)
          |> List.map (fun m ->
                 let members = List.filter (fun e -> Mask.equal (mask_of e) m) !live in
                 let maxp =
                   List.fold_left (fun acc (e : int Entry.t) -> max acc e.Entry.priority) min_int
                     members
                 in
                 (maxp, m, members))
          |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare b a)
        in
        let rec walk groups best probes =
          match (groups, best) with
          | [], _ -> (best, probes)
          | (maxp, _, _) :: _, Some (b : int Entry.t) when b.Entry.priority > maxp -> (best, probes)
          | (_, _, members) :: rest, _ ->
              let best =
                List.fold_left
                  (fun best e ->
                    if not (Entry.matches e flow) then best
                    else
                      match best with
                      | Some b when not (Entry.better e b) -> best
                      | _ -> Some e)
                  best members
              in
              walk rest best (probes + 1)
        in
        let expected, expected_probes = walk groups None 0 in
        let got, probes = Tss.lookup all flow in
        if winner_key got <> winner_key expected || probes <> expected_probes then ok := false
      in
      let check_lookup_first flow =
        let rec walk pos = function
          | [] -> (None, pos)
          | m :: rest -> (
              match
                List.find_opt
                  (fun e -> Mask.equal (mask_of e) m && Entry.matches e flow)
                  !live_disjoint
              with
              | Some e -> (Some e, pos + 1)
              | None -> walk (pos + 1) rest)
        in
        let expected, expected_probes = walk 0 !rank in
        (match expected with
        | Some e ->
            let m = mask_of e in
            rank := m :: List.filter (fun m' -> not (Mask.equal m m')) !rank
        | None -> ());
        let got, probes = Tss.lookup_first disjoint flow in
        if winner_key got <> winner_key expected || probes <> expected_probes then ok := false
      in
      for key = 0 to 299 do
        match Gf_util.Rng.int rng 10 with
        | 0 | 1 | 2 | 3 ->
            let rule = pool_rule rng ~id:key ~action:(Gf_pipeline.Action.output key) in
            let e =
              Entry.v ~key ~fmatch:rule.Gf_pipeline.Ofrule.fmatch
                ~priority:rule.Gf_pipeline.Ofrule.priority key
            in
            Tss.insert all e;
            live := e :: !live;
            if
              not
                (List.exists
                   (fun (d : int Entry.t) -> Fmatch.overlaps d.Entry.fmatch e.Entry.fmatch)
                   !live_disjoint)
            then begin
              Tss.insert disjoint e;
              if not (List.exists (Mask.equal (mask_of e)) !rank) then
                rank := !rank @ [ mask_of e ];
              live_disjoint := e :: !live_disjoint
            end
        | 4 | 5 -> (
            match !live with
            | [] -> ()
            | l ->
                let e = Gf_util.Rng.pick_list rng l in
                ignore (Tss.remove all e.Entry.key);
                live := drop e.Entry.key !live;
                if Tss.remove disjoint e.Entry.key then begin
                  live_disjoint := drop e.Entry.key !live_disjoint;
                  if not (List.exists (fun d -> Mask.equal (mask_of d) (mask_of e)) !live_disjoint)
                  then rank := List.filter (fun m -> not (Mask.equal m (mask_of e))) !rank
                end)
        | _ ->
            let flow =
              match !live with
              | e :: _ when Gf_util.Rng.bool rng ->
                  let e = Gf_util.Rng.pick_list rng (e :: !live) in
                  agreeing_flow rng (mask_of e) (Fmatch.pattern e.Entry.fmatch)
              | _ -> pool_flow rng
            in
            check_lookup flow;
            check_lookup_first flow
      done;
      !ok)

let test_duplicate_key_rejected () =
  let t = Tss.create () in
  let e = Entry.v ~key:1 ~fmatch:Fmatch.any ~priority:0 () in
  Tss.insert t e;
  Alcotest.check_raises "duplicate" (Invalid_argument "Tss.insert: duplicate key")
    (fun () -> Tss.insert t e)

let test_tss_tuple_count () =
  let t = Tss.create () in
  let fm1 = Fmatch.of_fields [ (Field.Ip_dst, 1) ] in
  let fm2 = Fmatch.of_fields [ (Field.Ip_dst, 2) ] in
  let fm3 = Fmatch.of_fields [ (Field.Tp_dst, 3) ] in
  Tss.insert t (Entry.v ~key:1 ~fmatch:fm1 ~priority:0 ());
  Tss.insert t (Entry.v ~key:2 ~fmatch:fm2 ~priority:0 ());
  Tss.insert t (Entry.v ~key:3 ~fmatch:fm3 ~priority:0 ());
  Alcotest.(check int) "two masks = two tuples" 2 (Tss.tuple_count t);
  ignore (Tss.remove t 3);
  Alcotest.(check int) "tuple gc'd" 1 (Tss.tuple_count t)

let test_tss_priority_pruning () =
  (* A high-priority match in the first tuple must stop the search. *)
  let t = Tss.create () in
  Tss.insert t
    (Entry.v ~key:1 ~fmatch:(Fmatch.of_fields [ (Field.Vlan, 1) ]) ~priority:10 ());
  for k = 2 to 11 do
    Tss.insert t
      (Entry.v ~key:k ~fmatch:(Fmatch.of_fields [ (Field.Tp_dst, k) ]) ~priority:1 ())
  done;
  let flow = Flow.make [ (Field.Vlan, 1); (Field.Tp_dst, 5) ] in
  let result, work = Tss.lookup t flow in
  Alcotest.(check int) "high priority wins" 1 (winner_key result);
  Alcotest.(check bool) "pruned" true (work <= 2)

let test_nm_trains_isets () =
  let rng = Gf_util.Rng.create 99 in
  let t = Nm.create () in
  (* Many disjoint ip_dst exact entries: ideal iSet material. *)
  for k = 0 to 199 do
    let fm = Fmatch.of_fields [ (Field.Ip_dst, k * 1000) ] in
    Nm.insert t (Entry.v ~key:k ~fmatch:fm ~priority:0 ())
  done;
  Nm.retrain t;
  Alcotest.(check bool) "at least one iset" true (Nm.iset_count t >= 1);
  Alcotest.(check int) "delta empty after train" 0 (Nm.delta_size t);
  (* Lookup cost should be far below the entry count. *)
  let flow = Flow.make [ (Field.Ip_dst, 57 * 1000) ] in
  let result, work = Nm.lookup t flow in
  Alcotest.(check int) "found" 57 (winner_key result);
  Alcotest.(check bool) (Printf.sprintf "o(1)-ish work (%d)" work) true (work < 40);
  ignore rng

let test_nm_auto_retrain () =
  let t = Nm.create () in
  for k = 0 to 999 do
    let fm = Fmatch.of_fields [ (Field.Ip_dst, k * 64) ] in
    Nm.insert t (Entry.v ~key:k ~fmatch:fm ~priority:0 ())
  done;
  (* The 25% delta threshold must have triggered training along the way. *)
  Alcotest.(check bool) "auto-trained" true (Nm.iset_count t >= 1)

let test_searcher_dispatch () =
  List.iter
    (fun algo ->
      let s = Searcher.create algo in
      Searcher.insert s (Entry.v ~key:1 ~fmatch:(Fmatch.of_fields [ (Field.Vlan, 4) ]) ~priority:1 "x");
      Alcotest.(check int) "size" 1 (Searcher.size s);
      let hit, _ = Searcher.lookup s (Flow.make [ (Field.Vlan, 4) ]) in
      Alcotest.(check bool) "hit" true (Option.is_some hit);
      let miss, _ = Searcher.lookup s (Flow.make [ (Field.Vlan, 5) ]) in
      Alcotest.(check bool) "miss" true (Option.is_none miss);
      Alcotest.(check bool) "remove" true (Searcher.remove s 1);
      Alcotest.(check int) "empty" 0 (Searcher.size s))
    [ `Linear; `Tss; `Nuevomatch ]

let test_searcher_names () =
  Alcotest.(check (option string)) "roundtrip tss" (Some "tss")
    (Option.map Searcher.algo_name (Searcher.algo_of_string "tss"));
  Alcotest.(check (option string)) "nm alias" (Some "nuevomatch")
    (Option.map Searcher.algo_name (Searcher.algo_of_string "nm"));
  Alcotest.(check bool) "unknown" true (Searcher.algo_of_string "bogus" = None)

let suite =
  [
    ("entry ordering", `Quick, test_entry_better);
    ("duplicate key rejected", `Quick, test_duplicate_key_rejected);
    ("tss tuple count", `Quick, test_tss_tuple_count);
    ("tss priority pruning", `Quick, test_tss_priority_pruning);
    ("nm trains isets", `Quick, test_nm_trains_isets);
    ("nm auto retrain", `Quick, test_nm_auto_retrain);
    ("searcher dispatch", `Quick, test_searcher_dispatch);
    ("searcher names", `Quick, test_searcher_names);
  ]

let props =
  [
    prop_tss_agrees_linear;
    prop_nm_agrees_linear;
    prop_nm_untrained_agrees;
    prop_tss_removal;
    prop_tss_walks_reference;
    prop_nm_removal;
    prop_nm_removal_trained;
  ]
