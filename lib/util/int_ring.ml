exception Empty

(* Elements sit in [buf.(head) .. buf.(head + len - 1)], indices taken
   modulo the capacity, which is always a power of two. *)
type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create () = { buf = Array.make 16 0; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

(* Double the capacity, unwrapping the contents to start at slot 0. *)
let grow t =
  let n = Array.length t.buf in
  let buf = Array.make (2 * n) 0 in
  let first = n - t.head in
  Array.blit t.buf t.head buf 0 first;
  Array.blit t.buf 0 buf first t.head;
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  let mask = Array.length t.buf - 1 in
  Array.unsafe_set t.buf ((t.head + t.len) land mask) x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then raise Empty;
  let x = Array.unsafe_get t.buf t.head in
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x
