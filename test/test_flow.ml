(* Tests for gigaflow.flow: Field, Flow, Mask, Fmatch, Headers. *)

open Helpers
module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask
module Fmatch = Gf_flow.Fmatch
module Headers = Gf_flow.Headers

let test_field_roundtrip () =
  Array.iter
    (fun f ->
      Alcotest.(check bool) "index roundtrip" true
        (Field.equal f (Field.of_index (Field.index f)));
      Alcotest.(check (option bool)) "name roundtrip" (Some true)
        (Option.map (Field.equal f) (Field.of_name (Field.name f))))
    Field.all

let test_field_count () =
  Alcotest.(check int) "ten fields (paper Fig. 6)" 10 Field.count

let test_field_widths () =
  Alcotest.(check int) "mac width" 48 (Field.width Field.Eth_src);
  Alcotest.(check int) "ip width" 32 (Field.width Field.Ip_dst);
  Alcotest.(check int) "vlan width" 12 (Field.width Field.Vlan);
  Array.iter
    (fun f ->
      Alcotest.(check int) "full mask bits" (Field.width f)
        (Gf_util.Bitops.popcount (Field.full_mask f)))
    Field.all

let test_flow_get_set () =
  let f = Flow.set Flow.zero Field.Ip_dst 0x0A000001 in
  Alcotest.(check int) "set/get" 0x0A000001 (Flow.get f Field.Ip_dst);
  Alcotest.(check int) "other untouched" 0 (Flow.get f Field.Ip_src);
  Alcotest.(check int) "original untouched" 0 (Flow.get Flow.zero Field.Ip_dst)

let test_flow_truncates () =
  let f = Flow.set Flow.zero Field.Ip_proto 0x1FF in
  Alcotest.(check int) "truncated to width" 0xFF (Flow.get f Field.Ip_proto)

let test_flow_array_roundtrip () =
  let f = Flow.make [ (Field.Vlan, 5); (Field.Tp_dst, 80) ] in
  Alcotest.check flow_testable "roundtrip" f (Flow.of_array (Flow.to_array f))

let test_mask_union_inter () =
  let a = Mask.exact_fields [ Field.Ip_dst ] in
  let b = Mask.exact_fields [ Field.Tp_dst ] in
  let u = Mask.union a b in
  Alcotest.(check bool) "union has both" true
    (Field.Set.mem Field.Ip_dst (Mask.fields u)
    && Field.Set.mem Field.Tp_dst (Mask.fields u));
  Alcotest.check mask_testable "inter empty" Mask.empty (Mask.inter a b)

let test_mask_prefix () =
  let m = Mask.prefix Field.Ip_dst 24 in
  Alcotest.(check int) "prefix value" 0xFFFFFF00 (Mask.get m Field.Ip_dst);
  Alcotest.(check int) "bits" 24 (Mask.bits m)

let test_mask_disjoint_subsume () =
  let a = Mask.exact_fields [ Field.Ip_dst ] in
  let b = Mask.prefix Field.Ip_dst 8 in
  Alcotest.(check bool) "not disjoint" false (Mask.disjoint a b);
  Alcotest.(check bool) "b subsumed by a" true (Mask.subsumes ~loose:b ~tight:a);
  Alcotest.(check bool) "a not subsumed by b" false (Mask.subsumes ~loose:a ~tight:b)

(* Property: union is commutative, associative, idempotent; inter dually. *)
let prop_mask_lattice =
  QCheck2.Test.make ~name:"mask union/inter lattice laws" ~count:200
    QCheck2.Gen.(triple gen_mask gen_mask gen_mask)
    (fun (a, b, c) ->
      Mask.equal (Mask.union a b) (Mask.union b a)
      && Mask.equal (Mask.union a (Mask.union b c)) (Mask.union (Mask.union a b) c)
      && Mask.equal (Mask.union a a) a
      && Mask.equal (Mask.inter a b) (Mask.inter b a)
      && Mask.equal (Mask.inter a (Mask.inter b c)) (Mask.inter (Mask.inter a b) c)
      && Mask.equal (Mask.inter a a) a
      && Mask.equal (Mask.inter a (Mask.union a b)) a
      && Mask.equal (Mask.union a (Mask.inter a b)) a)

(* Property: matches under a mask only depends on masked bits. *)
let prop_mask_matches_semantics =
  QCheck2.Test.make ~name:"mask matches = per-field masked equality" ~count:300
    QCheck2.Gen.(triple gen_mask gen_flow gen_flow)
    (fun (m, pat, flow) ->
      let expected =
        Array.for_all
          (fun f ->
            Mask.get m f land Flow.get pat f = (Mask.get m f land Flow.get flow f))
          Field.all
      in
      Mask.matches m ~pattern:pat flow = expected)

(* Property: subsumes means matching is weaker. *)
let prop_mask_subsumes_weaker =
  QCheck2.Test.make ~name:"subsumed mask matches superset of flows" ~count:300
    QCheck2.Gen.(triple gen_mask gen_flow gen_flow)
    (fun (m, pat, flow) ->
      let loose = Mask.inter m (Mask.prefix Field.Ip_dst 8) in
      (* loose has a subset of m's bits *)
      (not (Mask.matches m ~pattern:pat flow))
      || Mask.matches loose ~pattern:pat flow)

let prop_apply_scratch_agrees =
  QCheck2.Test.make ~name:"apply_scratch = apply" ~count:300
    QCheck2.Gen.(pair gen_mask gen_flow)
    (fun (m, flow) ->
      let scratch = Flow.Scratch.create () in
      Flow.equal (Mask.apply m flow) (Mask.apply_scratch m flow scratch))

let test_fmatch_canonical () =
  let pattern = Flow.make [ (Field.Ip_dst, 0x0A0000FF) ] in
  let mask = Mask.prefix Field.Ip_dst 24 in
  let fm = Fmatch.v ~pattern ~mask in
  Alcotest.(check int) "pattern pre-masked" 0x0A000000
    (Flow.get (Fmatch.pattern fm) Field.Ip_dst)

let test_fmatch_any_exact () =
  let f = Flow.make [ (Field.Tp_dst, 443) ] in
  Alcotest.(check bool) "any matches" true (Fmatch.matches Fmatch.any f);
  Alcotest.(check bool) "exact matches itself" true (Fmatch.matches (Fmatch.exact f) f);
  let g = Flow.set f Field.Tp_src 1 in
  Alcotest.(check bool) "exact rejects different" false
    (Fmatch.matches (Fmatch.exact f) g)

let test_fmatch_of_fields () =
  let fm = Fmatch.of_fields [ (Field.Vlan, 7); (Field.Ip_proto, 6) ] in
  Alcotest.(check bool) "matches" true
    (Fmatch.matches fm (Flow.make [ (Field.Vlan, 7); (Field.Ip_proto, 6); (Field.Tp_dst, 9) ]));
  Alcotest.(check bool) "rejects" false
    (Fmatch.matches fm (Flow.make [ (Field.Vlan, 8); (Field.Ip_proto, 6) ]))

let test_fmatch_prefix () =
  let fm =
    Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:(Headers.ipv4 "10.1.2.0") ~len:24
  in
  Alcotest.(check bool) "inside" true
    (Fmatch.matches fm (Flow.make [ (Field.Ip_dst, Headers.ipv4 "10.1.2.200") ]));
  Alcotest.(check bool) "outside" false
    (Fmatch.matches fm (Flow.make [ (Field.Ip_dst, Headers.ipv4 "10.1.3.1") ]))

let prop_fmatch_overlap_symmetric =
  QCheck2.Test.make ~name:"fmatch overlap is symmetric" ~count:300
    QCheck2.Gen.(pair gen_fmatch gen_fmatch)
    (fun (a, b) -> Fmatch.overlaps a b = Fmatch.overlaps b a)

let prop_fmatch_overlap_witness =
  (* If two matches overlap, the blended flow witnesses it. *)
  QCheck2.Test.make ~name:"overlap implies common witness" ~count:300
    QCheck2.Gen.(pair gen_fmatch gen_fmatch)
    (fun (a, b) ->
      if not (Fmatch.overlaps a b) then true
      else begin
        (* Build a witness: take a's pattern bits where a constrains, b's
           where b constrains (consistent on shared bits by overlap), zero
           elsewhere. *)
        let wa = Fmatch.mask a and wb = Fmatch.mask b in
        let values =
          Array.map
            (fun f ->
              let ma = Mask.get wa f and mb = Mask.get wb f in
              (Flow.get (Fmatch.pattern a) f land ma)
              lor (Flow.get (Fmatch.pattern b) f land mb land lnot ma))
            Field.all
        in
        let w = Flow.of_array values in
        Fmatch.matches a w && Fmatch.matches b w
      end)

let prop_fmatch_specific =
  QCheck2.Test.make ~name:"is_more_specific implies match subset" ~count:300
    QCheck2.Gen.(triple gen_fmatch gen_fmatch gen_flow)
    (fun (a, b, flow) ->
      (not (Fmatch.is_more_specific a ~than:b))
      || (not (Fmatch.matches a flow))
      || Fmatch.matches b flow)

(* ---------------- functorized tables, interning, update ---------------- *)

(* A structurally-equal but physically-distinct duplicate, so the tests
   below exercise the deep paths of [equal]/[hash], not the [==] shortcut. *)
let rebuild_flow f = Flow.of_array (Flow.to_array f)

let rebuild_mask m =
  Mask.make (List.map (fun f -> (f, Mask.get m f)) (Array.to_list Field.all))

let prop_flow_hash_equal_consistent =
  QCheck2.Test.make ~name:"flow equal duplicates hash alike" ~count:300 gen_flow
    (fun f ->
      let g = rebuild_flow f in
      (not (f == g)) && Flow.equal f g && Flow.hash f = Flow.hash g)

let prop_mask_hash_equal_consistent =
  QCheck2.Test.make ~name:"mask equal duplicates hash alike" ~count:300 gen_mask
    (fun m ->
      let n = rebuild_mask m in
      Mask.equal m n && Mask.hash m = Mask.hash n)

let prop_flow_tbl_roundtrip =
  (* The functorized table must find entries through structurally-equal
     keys — this is what the caches rely on after the Hashtbl.Make port. *)
  QCheck2.Test.make ~name:"Flow.Tbl finds structurally-equal keys" ~count:200
    QCheck2.Gen.(small_list gen_flow)
    (fun flows ->
      let tbl = Flow.Tbl.create 16 in
      List.iteri (fun i f -> Flow.Tbl.replace tbl f i) flows;
      List.for_all
        (fun f -> Flow.Tbl.find_opt tbl (rebuild_flow f) <> None)
        flows)

let prop_mask_intern_canonical =
  QCheck2.Test.make ~name:"Mask.intern canonicalizes duplicates" ~count:200
    gen_mask
    (fun m ->
      let c = Mask.intern m in
      (* Idempotent, physically canonical across rebuilt duplicates, and
         value-preserving. *)
      Mask.intern c == c
      && Mask.intern (rebuild_mask m) == c
      && Mask.equal c m)

let prop_flow_update_is_folded_set =
  let gen_bindings =
    QCheck2.Gen.(
      list_size (0 -- 4) (gen_field >>= fun f -> gen_value f >>= fun v -> pure (f, v)))
  in
  QCheck2.Test.make ~name:"Flow.update = folded Flow.set" ~count:300
    QCheck2.Gen.(pair gen_flow gen_bindings)
    (fun (flow, bindings) ->
      Flow.equal
        (Flow.update flow bindings)
        (List.fold_left (fun f (field, v) -> Flow.set f field v) flow bindings))

let test_flow_update_empty_no_copy () =
  let f = Flow.make [ (Field.Tp_dst, 443) ] in
  Alcotest.(check bool) "empty commit returns the flow itself" true
    (Flow.update f [] == f)

let test_mask_tbl_basic () =
  let tbl = Mask.Tbl.create 8 in
  let a = Mask.prefix Field.Ip_dst 24 in
  let b = Mask.exact_fields [ Field.Tp_dst ] in
  Mask.Tbl.replace tbl a 1;
  Mask.Tbl.replace tbl b 2;
  Alcotest.(check (option int)) "find a via duplicate" (Some 1)
    (Mask.Tbl.find_opt tbl (rebuild_mask a));
  Alcotest.(check (option int)) "find b" (Some 2) (Mask.Tbl.find_opt tbl b);
  Mask.Tbl.replace tbl (rebuild_mask a) 3;
  Alcotest.(check int) "replace via duplicate keeps one binding" 2
    (Mask.Tbl.length tbl);
  Alcotest.(check (option int)) "replaced" (Some 3) (Mask.Tbl.find_opt tbl a)

(* Hash spread on prefix-structured keys.  Power-of-two tables
   ([Hashtbl.Make], the cuckoo buckets) index by [hash land (size - 1)], and
   masked keys have their low bits zeroed, so a hash that does not carry
   high input bits down to its low bits puts such keys in a handful of
   buckets.  Each key set is twice the table size; a well-mixed hash fills
   about 86% of the buckets, the bound asks for half. *)
let buckets_used hash keys ~size =
  let used = Array.make size false in
  List.iter (fun k -> used.(hash k land (size - 1)) <- true) keys;
  Array.fold_left (fun n u -> if u then n + 1 else n) 0 used

let check_spread name hash keys =
  let size = List.length keys / 2 in
  let used = buckets_used hash keys ~size in
  if 2 * used < size then
    Alcotest.failf "%s: %d keys use %d of %d buckets" name (List.length keys) used size

let test_flow_hash_spreads_prefixes () =
  List.iter
    (fun len ->
      (* 256 addresses that differ only inside the /len prefix: every host
         bit is zero. *)
      let flows =
        List.init 256 (fun i ->
            Flow.make
              [
                (Field.Ip_src, i lsl (32 - len));
                (Field.Ip_dst, Headers.ipv4 "10.0.0.0");
                (Field.Ip_proto, Headers.proto_tcp);
                (Field.Tp_dst, 80);
              ])
      in
      check_spread (Printf.sprintf "flows within a /%d" len) Flow.hash flows)
    [ 8; 16; 24 ]

let test_mask_hash_spreads () =
  (* 33 x 33 distinct source/destination prefix-length pairs. *)
  let masks =
    List.concat_map
      (fun a ->
        List.init 33 (fun b ->
            Mask.union (Mask.prefix Field.Ip_src a) (Mask.prefix Field.Ip_dst b)))
      (List.init 33 Fun.id)
  in
  (* 1,089 masks: round down to a power of two so the table is one. *)
  check_spread "prefix masks" Mask.hash (List.filteri (fun i _ -> i < 1024) masks)

let test_headers_ipv4 () =
  Alcotest.(check int) "parse" 0x0A000001 (Headers.ipv4 "10.0.0.1");
  Alcotest.(check string) "print" "10.0.0.1" (Headers.ipv4_to_string 0x0A000001);
  Alcotest.check_raises "reject malformed" (Invalid_argument "Headers.ipv4: 10.0.0")
    (fun () -> ignore (Headers.ipv4 "10.0.0"));
  Alcotest.check_raises "reject out of range" (Invalid_argument "Headers.ipv4: 256.0.0.1")
    (fun () -> ignore (Headers.ipv4 "256.0.0.1"))

let test_headers_mac () =
  let m = Headers.mac "aa:bb:cc:00:11:22" in
  Alcotest.(check string) "roundtrip" "aa:bb:cc:00:11:22" (Headers.mac_to_string m)

let test_headers_tcp () =
  let f =
    Headers.tcp ~src:(Headers.ipv4 "10.0.0.1") ~dst:(Headers.ipv4 "10.0.0.2")
      ~sport:1234 ~dport:80 ()
  in
  Alcotest.(check int) "ethertype" Headers.ethertype_ipv4 (Flow.get f Field.Eth_type);
  Alcotest.(check int) "proto" Headers.proto_tcp (Flow.get f Field.Ip_proto);
  Alcotest.(check int) "dport" 80 (Flow.get f Field.Tp_dst)

let suite =
  [
    ("field roundtrips", `Quick, test_field_roundtrip);
    ("field count", `Quick, test_field_count);
    ("field widths", `Quick, test_field_widths);
    ("flow get/set", `Quick, test_flow_get_set);
    ("flow truncation", `Quick, test_flow_truncates);
    ("flow array roundtrip", `Quick, test_flow_array_roundtrip);
    ("mask union/inter", `Quick, test_mask_union_inter);
    ("mask prefix", `Quick, test_mask_prefix);
    ("mask disjoint/subsumes", `Quick, test_mask_disjoint_subsume);
    ("fmatch canonical", `Quick, test_fmatch_canonical);
    ("fmatch any/exact", `Quick, test_fmatch_any_exact);
    ("fmatch of_fields", `Quick, test_fmatch_of_fields);
    ("fmatch prefix", `Quick, test_fmatch_prefix);
    ("flow update empty no copy", `Quick, test_flow_update_empty_no_copy);
    ("mask tbl basics", `Quick, test_mask_tbl_basic);
    ("flow hash spreads prefix keys", `Quick, test_flow_hash_spreads_prefixes);
    ("mask hash spreads prefix masks", `Quick, test_mask_hash_spreads);
    ("headers ipv4", `Quick, test_headers_ipv4);
    ("headers mac", `Quick, test_headers_mac);
    ("headers tcp", `Quick, test_headers_tcp);
  ]

let props =
  [
    prop_mask_lattice;
    prop_mask_matches_semantics;
    prop_mask_subsumes_weaker;
    prop_apply_scratch_agrees;
    prop_fmatch_overlap_symmetric;
    prop_fmatch_overlap_witness;
    prop_fmatch_specific;
    prop_flow_hash_equal_consistent;
    prop_mask_hash_equal_consistent;
    prop_flow_tbl_roundtrip;
    prop_mask_intern_canonical;
    prop_flow_update_is_folded_set;
  ]
