// Lint fixture (never compiled): the structural mutex-annotation coverage
// check.  Every mutex member must be named by at least one annotation, every
// condition variable must declare its pairing mutex, and every annotation
// must reference a mutex that is actually declared somewhere in the tree.

struct FixtureCovered {
  core::Mutex fixture_good_m;
  int guarded QUDA_GUARDED_BY(fixture_good_m);
  core::CondVar fixture_paired_cv QUDA_CV_WAITS_WITH(fixture_good_m);
};

struct FixtureUncovered {
  core::Mutex fixture_lonely_m;                       // EXPECT-LINT: sim-mutex-coverage
  core::CondVar fixture_naked_cv;                     // EXPECT-LINT: sim-mutex-coverage
  int ghost_field QUDA_GUARDED_BY(fixture_ghost_m);   // EXPECT-LINT: sim-mutex-coverage
};

// condvars held through a container or smart pointer (a per-rank slot
// array) need the same pairing declaration as a plain member
struct FixtureSlotCVs {
  core::Mutex fixture_slots_m;
  int slot_state QUDA_GUARDED_BY(fixture_slots_m);
  std::vector<std::unique_ptr<core::CondVar>> fixture_paired_slots
      QUDA_CV_WAITS_WITH(fixture_slots_m);
  std::array<core::CondVar, 4> fixture_paired_array QUDA_CV_WAITS_WITH(fixture_slots_m);
  // EXPECT-LINT-NEXT: sim-mutex-coverage
  std::vector<std::unique_ptr<core::CondVar>> fixture_naked_slots;
  std::unique_ptr<core::CondVar[]> fixture_naked_array; // EXPECT-LINT: sim-mutex-coverage
  std::unique_ptr<core::CondVar> make_slot(); // a factory, not a member
  void notify(core::CondVar& cv);             // a parameter, not a member
};
