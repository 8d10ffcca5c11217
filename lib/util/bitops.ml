let mask_of_width w =
  assert (w >= 0 && w <= 62);
  if w = 0 then 0 else (1 lsl w) - 1

let prefix_mask ~width len =
  assert (len >= 0 && len <= width);
  mask_of_width width land lnot (mask_of_width (width - len))

(* SWAR over the 62 bits below the sign: pairs, nibbles, then bytes summed
   by one multiply into the top byte (at most 62, so no carry leaves it).
   The sign bit is counted on its own, which keeps negative ints exact. *)
let popcount n =
  let x = n land max_int in
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  ((x * 0x0101_0101_0101_0101) lsr 56) + (n lsr 62)

let is_subset ~sub ~super = sub land super = sub
