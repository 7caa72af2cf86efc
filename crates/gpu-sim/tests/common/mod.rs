//! Helpers shared by the gpu-sim integration suites.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gpu_sim::{Device, DeviceArch};

fn panic_message(err: &(dyn Any + Send)) -> String {
    match (err.downcast_ref::<String>(), err.downcast_ref::<&str>()) {
        (Some(s), _) => s.clone(),
        (_, Some(s)) => s.to_string(),
        _ => String::from("<non-string panic>"),
    }
}

/// Run `launch` on a one-thread device on `arch` with the sanitizer off
/// and on. Both runs must panic with the same message, which is raised
/// again for the test's `should_panic` to check.
pub fn panics_alike_sanitized_or_not(arch: DeviceArch, launch: impl Fn(&mut Device)) {
    let msgs = [false, true].map(|sanitize| {
        let mut dev = Device::new(arch.clone());
        dev.set_sim_threads(Some(1));
        if sanitize {
            dev.enable_sanitizer();
        }
        let err =
            catch_unwind(AssertUnwindSafe(|| launch(&mut dev))).expect_err("the launch must panic");
        panic_message(&*err)
    });
    assert_eq!(msgs[0], msgs[1], "the sanitizer changed the panic");
    panic!("{}", msgs[0]);
}
