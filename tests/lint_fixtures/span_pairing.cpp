// LINT-AS: src/trace/fixture_span.cpp
// Lint fixture (never compiled): a captured `*begin*_us` timestamp that no
// later span() call consumes.  A begin time without its closing span leaves
// a half-recorded trace window -- the timeline silently loses the interval.

void fixture_unclosed_window(Ctx& ctx) {
  const double begin_us = ctx.clock().now_us;      // EXPECT-LINT: sim-span-pairing
  run_interior_kernel(ctx);
  double halo_begin_us = ctx.clock().now_us;       // EXPECT-LINT: sim-span-pairing
  run_halo_exchange(ctx);
}

void fixture_closed_window(Ctx& ctx) {
  // the blessed pattern: the begin time reaches a span() call
  const double pack_begin_us = ctx.clock().now_us;
  run_pack_kernel(ctx);
  ctx.tracer().span(trace::Kind::HaloDslash, pack_begin_us, ctx.clock().now_us);
}
