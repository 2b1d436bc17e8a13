//! Figure 8: loss-rate estimation error, iNano vs path composition. The figure is
//! `inano_bench::figures::fig8_loss_error`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("fig8_loss_error");
}
