let with_object pool id f =
  Pool.pin pool id;
  Fun.protect ~finally:(fun () -> Pool.unpin pool id) f
