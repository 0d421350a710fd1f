//! The summarization layer's bit-exact references, run in tier-1.
//!
//! The Cobweb descent scores each level from cached terms, reads a
//! leaf's terms from its key's slots only and maps records into reused
//! buffers. Each of these is checked here against the code it replaced,
//! kept in `saintetiq` as a self-check: equal bits or the same decision,
//! or a panic naming the first difference.

#[test]
fn level_scores_match_the_reference_scorer() {
    saintetiq::engine::level_scores_match_the_reference_scorer();
}

#[test]
fn one_pass_mapping_matches_the_reference() {
    saintetiq::mapping::one_pass_mapping_matches_the_reference();
}
