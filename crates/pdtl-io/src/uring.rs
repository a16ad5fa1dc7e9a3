//! Asynchronous block streaming over `io_uring`: real device queue
//! depth without prefetch threads.
//!
//! The [`PrefetchReader`](crate::PrefetchReader) hides device latency
//! by spending a thread per stream on blocking `read(2)` calls.
//! [`UringSource`] gets the same overlap from the kernel instead: block
//! reads are submitted to an `io_uring` submission queue and complete
//! asynchronously, so up to [`URING_DEPTH`] block-sized reads are in
//! flight per stream with *zero* extra threads, no producer/consumer
//! hand-off, and no cross-thread copy. The MGT engines select it via
//! `IoBackend::Uring` (wire discriminant 3).
//!
//! **Accounting.** `UringSource` is the same [`BlockStream`] cursor as
//! every other transport, so it charges [`IoStats`] exactly where a
//! buffered reader refills or repositions: a block is charged when the
//! consumer takes it, and read-ahead blocks discarded by a reposition
//! are never charged. Emulated device latency
//! ([`set_read_latency`](BlockStream::set_read_latency)) models an
//! asynchronous device: each block becomes *ready* `latency` after its
//! submission, so a consumer that arrives late (the overlap case) never
//! sleeps, while one that arrives early sleeps only the remainder —
//! which is exactly what distinguishes queue-depth I/O from the
//! one-sleep-per-refill blocking emulation.
//!
//! The ring is bound the same `extern "C"` way the mapping syscalls
//! were in the mmap backend: raw `io_uring_setup(2)` /
//! `io_uring_enter(2)` via `syscall(2)` plus `mmap`/`munmap` for the
//! shared SQ/CQ rings, gated to 64-bit little-endian Linux. Elsewhere —
//! or on kernels where the probe fails (pre-5.6, seccomp,
//! `io_uring_disabled`) — [`UringSource::open`] reports `Unsupported`
//! and `IoBackend::Uring.resolve()` degrades to the prefetch backend,
//! so no caller needs platform knowledge. [`URING_DISABLE_ENV`] forces
//! the degradation path for tests and operators.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::error::{IoError, Result};
use crate::stats::IoStats;
use crate::stream::{BlockFetch, BlockStream, DEFAULT_BUF_U32S};

/// Block-sized reads kept in flight (or ready) ahead of the consumer —
/// the queue depth of the backend, and the async analogue of
/// [`PREFETCH_DEPTH`](crate::prefetch::PREFETCH_DEPTH).
pub const URING_DEPTH: usize = 4;

/// Environment kill-switch: when set (non-empty),
/// [`uring_supported`] reports `false`, [`UringSource::open`] fails
/// with `Unsupported` and `IoBackend::Uring` resolves to the prefetch
/// backend — the same path a kernel without `io_uring` takes. Lets the
/// degradation tests (and operators on locked-down hosts) exercise the
/// fallback deterministically.
pub const URING_DISABLE_ENV: &str = "PDTL_URING_DISABLE";

/// Whether this build can contain the `io_uring` backend at all (64-bit
/// little-endian Linux, the same gate as the mmap backend). Runtime
/// availability is a separate question — see [`uring_supported`].
pub const fn uring_compiled() -> bool {
    cfg!(all(
        target_os = "linux",
        target_endian = "little",
        target_pointer_width = "64"
    ))
}

/// Whether the running kernel accepts `io_uring_setup(2)` (probed once
/// and cached) and [`URING_DISABLE_ENV`] is not set. `false` means
/// [`UringSource::open`] will report `Unsupported` and
/// `IoBackend::Uring.resolve()` degrades to prefetch.
pub fn uring_supported() -> bool {
    if !uring_compiled() {
        return false;
    }
    if std::env::var_os(URING_DISABLE_ENV).is_some_and(|v| !v.is_empty()) {
        return false;
    }
    imp::probe_kernel()
}

#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
mod sys {
    //! Minimal raw `io_uring` binding: `io_uring_setup(2)` /
    //! `io_uring_enter(2)` via `syscall(2)` plus the three ring
    //! mappings. `std` already links libc, so — like the mmap
    //! backend's binding — no new dependency is introduced.

    use std::os::raw::{c_int, c_long, c_void};
    use std::sync::atomic::{AtomicU32, Ordering};

    // asm-generic syscall numbers (shared by every 64-bit Linux arch
    // that has io_uring).
    const SYS_IO_URING_SETUP: c_long = 425;
    const SYS_IO_URING_ENTER: c_long = 426;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_SHARED: c_int = 0x01;
    const MAP_POPULATE: c_int = 0x8000;

    /// `mmap` offsets selecting which ring region to map.
    const IORING_OFF_SQ_RING: i64 = 0;
    const IORING_OFF_CQ_RING: i64 = 0x800_0000;
    const IORING_OFF_SQES: i64 = 0x1000_0000;

    /// SQ and CQ rings share one mapping when the kernel reports this
    /// feature (5.4+); older kernels need two.
    const IORING_FEAT_SINGLE_MMAP: u32 = 1;

    /// Positional read into a plain buffer (5.6+), the only opcode the
    /// backend uses.
    const IORING_OP_READ: u8 = 22;
    const IORING_ENTER_GETEVENTS: u32 = 1;

    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// `struct io_sqring_offsets`.
    #[repr(C)]
    #[derive(Default, Clone, Copy)]
    struct SqOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        flags: u32,
        dropped: u32,
        array: u32,
        resv1: u32,
        user_addr: u64,
    }

    /// `struct io_cqring_offsets`.
    #[repr(C)]
    #[derive(Default, Clone, Copy)]
    struct CqOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        overflow: u32,
        cqes: u32,
        flags: u32,
        resv1: u32,
        user_addr: u64,
    }

    /// `struct io_uring_params` (120 bytes).
    #[repr(C)]
    #[derive(Default, Clone, Copy)]
    struct Params {
        sq_entries: u32,
        cq_entries: u32,
        flags: u32,
        sq_thread_cpu: u32,
        sq_thread_idle: u32,
        features: u32,
        wq_fd: u32,
        resv: [u32; 3],
        sq_off: SqOffsets,
        cq_off: CqOffsets,
    }

    /// `struct io_uring_sqe` (64 bytes; the fields this backend uses,
    /// the rest zeroed padding).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Sqe {
        opcode: u8,
        flags: u8,
        ioprio: u16,
        fd: i32,
        off: u64,
        addr: u64,
        len: u32,
        rw_flags: u32,
        user_data: u64,
        _pad: [u64; 3],
    }

    /// `struct io_uring_cqe`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Cqe {
        user_data: u64,
        res: i32,
        flags: u32,
    }

    /// One completed read: `(user_data, result)` with `result` either
    /// the byte count or an OS error.
    pub type Completion = (u64, std::io::Result<usize>);

    /// An mmap'd ring region, unmapped on drop.
    struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    impl Mapping {
        fn new(fd: c_int, len: usize, offset: i64) -> std::io::Result<Self> {
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE,
                    fd,
                    offset,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Self { ptr, len })
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            unsafe {
                let _ = munmap(self.ptr, self.len);
            }
        }
    }

    /// A minimal single-issuer `io_uring` instance: submit positional
    /// reads, reap completions. All pointer arithmetic is confined to
    /// this type; everything above it deals in safe `Completion`s.
    pub struct Ring {
        fd: c_int,
        /// SQ ring mapping (also the CQ ring under `SINGLE_MMAP`).
        sq_ring: Mapping,
        /// Separate CQ ring mapping on pre-5.4 kernels.
        cq_ring: Option<Mapping>,
        sqes: Mapping,
        sq_mask: u32,
        cq_mask: u32,
        // Offsets into the ring mappings (kept as offsets, resolved per
        // access, so no self-referential pointers are stored).
        sq_tail_off: u32,
        sq_array_off: u32,
        cq_head_off: u32,
        cq_tail_off: u32,
        cq_cqes_off: u32,
    }

    impl std::fmt::Debug for Ring {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Ring").field("fd", &self.fd).finish()
        }
    }

    impl Ring {
        /// Create a ring with `entries` SQ slots.
        pub fn new(entries: u32) -> std::io::Result<Self> {
            let mut p = Params::default();
            let fd = unsafe { syscall(SYS_IO_URING_SETUP, entries, &mut p as *mut Params) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            let fd = fd as c_int;
            // Guard the fd until the mappings succeed.
            struct FdGuard(c_int);
            impl Drop for FdGuard {
                fn drop(&mut self) {
                    if self.0 >= 0 {
                        unsafe {
                            let _ = close(self.0);
                        }
                    }
                }
            }
            let mut guard = FdGuard(fd);

            let sq_len = p.sq_off.array as usize + p.sq_entries as usize * 4;
            let cq_len = p.cq_off.cqes as usize + p.cq_entries as usize * 16;
            let (sq_ring, cq_ring) = if p.features & IORING_FEAT_SINGLE_MMAP != 0 {
                (
                    Mapping::new(fd, sq_len.max(cq_len), IORING_OFF_SQ_RING)?,
                    None,
                )
            } else {
                (
                    Mapping::new(fd, sq_len, IORING_OFF_SQ_RING)?,
                    Some(Mapping::new(fd, cq_len, IORING_OFF_CQ_RING)?),
                )
            };
            let sqes = Mapping::new(
                fd,
                p.sq_entries as usize * std::mem::size_of::<Sqe>(),
                IORING_OFF_SQES,
            )?;
            let mut ring = Self {
                fd,
                sq_ring,
                cq_ring,
                sqes,
                sq_mask: 0,
                cq_mask: 0,
                sq_tail_off: p.sq_off.tail,
                sq_array_off: p.sq_off.array,
                cq_head_off: p.cq_off.head,
                cq_tail_off: p.cq_off.tail,
                cq_cqes_off: p.cq_off.cqes,
            };
            // The masks live in the mapped rings; read them once.
            ring.sq_mask = unsafe { ring.sq_u32(p.sq_off.ring_mask).load(Ordering::Relaxed) };
            ring.cq_mask = unsafe { ring.cq_u32(p.cq_off.ring_mask).load(Ordering::Relaxed) };
            guard.0 = -1; // ring owns the fd now
            Ok(ring)
        }

        /// The `u32` at byte offset `off` of the SQ ring, as an atomic
        /// (the kernel writes these fields concurrently).
        unsafe fn sq_u32(&self, off: u32) -> &AtomicU32 {
            &*(self.sq_ring.ptr.add(off as usize) as *const AtomicU32)
        }

        /// The `u32` at byte offset `off` of the CQ ring.
        unsafe fn cq_u32(&self, off: u32) -> &AtomicU32 {
            let base = self.cq_ring.as_ref().map_or(self.sq_ring.ptr, |m| m.ptr);
            &*(base.add(off as usize) as *const AtomicU32)
        }

        /// Queue one positional read of `len` bytes at file offset
        /// `off` into `buf`, tagged `user_data`, and submit it.
        ///
        /// # Safety
        /// `buf` must stay valid (and unmoved) until the completion
        /// tagged `user_data` has been reaped.
        pub unsafe fn submit_read(
            &mut self,
            file_fd: c_int,
            buf: *mut u8,
            len: usize,
            off: u64,
            user_data: u64,
        ) -> std::io::Result<()> {
            let tail = self.sq_u32(self.sq_tail_off).load(Ordering::Acquire);
            let idx = tail & self.sq_mask;
            let sqe = &mut *(self.sqes.ptr as *mut Sqe).add(idx as usize);
            *sqe = Sqe {
                opcode: IORING_OP_READ,
                flags: 0,
                ioprio: 0,
                fd: file_fd,
                off,
                addr: buf as u64,
                len: len as u32,
                rw_flags: 0,
                user_data,
                _pad: [0; 3],
            };
            let slot = self.sq_u32(self.sq_array_off + 4 * idx);
            slot.store(idx, Ordering::Relaxed);
            self.sq_u32(self.sq_tail_off)
                .store(tail.wrapping_add(1), Ordering::Release);
            let r = syscall(
                SYS_IO_URING_ENTER,
                self.fd,
                1u32,
                0u32,
                0u32,
                0usize,
                0usize,
            );
            if r < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        /// Block until at least one completion is pending.
        pub fn wait(&self) -> std::io::Result<()> {
            let r = unsafe {
                syscall(
                    SYS_IO_URING_ENTER,
                    self.fd,
                    0u32,
                    1u32,
                    IORING_ENTER_GETEVENTS,
                    0usize,
                    0usize,
                )
            };
            if r < 0 {
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::Interrupted {
                    return Ok(()); // retry at the caller's next wait
                }
                return Err(e);
            }
            Ok(())
        }

        /// Reap one completion if any is pending.
        pub fn pop(&mut self) -> Option<Completion> {
            unsafe {
                let head = self.cq_u32(self.cq_head_off).load(Ordering::Relaxed);
                let tail = self.cq_u32(self.cq_tail_off).load(Ordering::Acquire);
                if head == tail {
                    return None;
                }
                let base = self.cq_ring.as_ref().map_or(self.sq_ring.ptr, |m| m.ptr);
                let cqe = *(base.add(self.cq_cqes_off as usize) as *const Cqe)
                    .add((head & self.cq_mask) as usize);
                self.cq_u32(self.cq_head_off)
                    .store(head.wrapping_add(1), Ordering::Release);
                let result = if cqe.res < 0 {
                    Err(std::io::Error::from_raw_os_error(-cqe.res))
                } else {
                    Ok(cqe.res as usize)
                };
                Some((cqe.user_data, result))
            }
        }
    }

    impl Drop for Ring {
        fn drop(&mut self) {
            unsafe {
                let _ = close(self.fd);
            }
        }
    }
}

#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
mod imp {
    //! The ring-backed fetcher (everything above the raw binding).
    use super::*;
    use crate::stream::BYTES_PER_U32;
    use std::time::Instant;

    /// Whether the running kernel accepts `io_uring_setup(2)` (probed once).
    pub(super) fn probe_kernel() -> bool {
        static PROBE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *PROBE.get_or_init(|| sys::Ring::new(2).is_ok())
    }

    /// Submission-queue size of each source's ring (completions queue is
    /// twice this by default; both comfortably exceed [`URING_DEPTH`]).
    const SQ_ENTRIES: u32 = 8;

    /// Lifecycle of one read-ahead slot.
    #[derive(Debug)]
    enum SlotState {
        /// No read associated with this slot.
        Free,
        /// A read starting at `u32` index `start` is queued in the kernel.
        InFlight { start: u64, submitted: Instant },
        /// The read completed; `res` is the kernel's byte count or error.
        Ready {
            start: u64,
            submitted: Instant,
            res: std::io::Result<usize>,
        },
    }

    /// One read-ahead slot: a reusable buffer plus its state.
    #[derive(Debug)]
    struct Slot {
        buf: Vec<u8>,
        state: SlotState,
    }

    /// The `io_uring` fetcher: up to [`URING_DEPTH`] block-sized reads in
    /// flight, submitted ahead of the cursor in the block grid its fetches
    /// follow and handed over (buffer swapped, not copied) when asked for.
    /// A [`hint`](BlockFetch::hint) queues a *future* range's first blocks
    /// — how chunk `k+1` loads in the kernel while chunk `k`'s scan pass
    /// computes, with no prefetch thread.
    #[derive(Debug)]
    pub struct UringFetch {
        slots: Vec<Slot>,
        ring: sys::Ring,
        file: std::fs::File,
        /// Total `u32`s in the file, and the block size in `u32`s: the grid
        /// read-ahead is planned on.
        len_u32: u64,
        block_u32s: usize,
    }

    impl UringFetch {
        /// Open `path` behind a fresh ring; returns the fetcher and the
        /// file's length in `u32`s.
        pub(super) fn open(path: &Path, block_u32s: usize) -> Result<(Self, u64)> {
            let (file, len_u32) = crate::stream::open_u32_file(path)?;
            let ring = sys::Ring::new(SQ_ENTRIES).map_err(|e| IoError::os("io_uring", path, e))?;
            let slots = (0..URING_DEPTH).map(|_| Slot {
                buf: Vec::new(),
                state: SlotState::Free,
            });
            let fetch = Self {
                slots: slots.collect(),
                ring,
                file,
                len_u32,
                block_u32s,
            };
            Ok((fetch, len_u32))
        }

        /// The length (in `u32`s) of a block starting at `start`.
        fn want_at(&self, start: u64) -> usize {
            (self.len_u32 - start).min(self.block_u32s as u64) as usize
        }

        /// The next [`URING_DEPTH`] block start positions from `from`
        /// (fewer near end of file).
        fn planned_from(&self, from: u64) -> ([u64; URING_DEPTH], usize) {
            let mut plan = [0u64; URING_DEPTH];
            let mut n = 0;
            let mut p = from;
            while n < URING_DEPTH && p < self.len_u32 {
                plan[n] = p;
                n += 1;
                p += self.want_at(p) as u64;
            }
            (plan, n)
        }

        /// Drain the completion queue into the slots.
        fn reap(&mut self) {
            while let Some((user_data, res)) = self.ring.pop() {
                let Some(slot) = self.slots.get_mut(user_data as usize) else {
                    continue;
                };
                if let SlotState::InFlight { start, submitted } = slot.state {
                    slot.state = SlotState::Ready {
                        start,
                        submitted,
                        res,
                    };
                }
            }
        }

        /// The slot (ready or in flight) holding the block at `start`.
        fn slot_for(&self, start: u64) -> Option<usize> {
            self.slots.iter().position(|s| match s.state {
                SlotState::InFlight { start: p, .. } | SlotState::Ready { start: p, .. } => {
                    p == start
                }
                SlotState::Free => false,
            })
        }

        /// A slot that can take a new submission: a free one, else a ready
        /// one whose block is not in `protect` (evicted, never charged).
        fn acquire_slot(&mut self, protect: &[u64]) -> Option<usize> {
            if let Some(i) = self
                .slots
                .iter()
                .position(|s| matches!(s.state, SlotState::Free))
            {
                return Some(i);
            }
            let i = self.slots.iter().position(|s| match s.state {
                SlotState::Ready { start, .. } => !protect.contains(&start),
                _ => false,
            })?;
            self.slots[i].state = SlotState::Free;
            Some(i)
        }

        /// Queue the read of the block starting at `start` into slot `idx`.
        fn submit_slot(&mut self, idx: usize, start: u64) -> std::io::Result<()> {
            use std::os::unix::io::AsRawFd;
            let want_bytes = self.want_at(start) * BYTES_PER_U32 as usize;
            let slot = &mut self.slots[idx];
            slot.buf.clear();
            slot.buf.resize(want_bytes, 0);
            // SAFETY: the buffer lives in `self.slots` and is neither freed
            // nor resized until the slot leaves `InFlight` (consumption,
            // eviction and drop all reap first).
            let submitted = Instant::now();
            unsafe {
                self.ring.submit_read(
                    self.file.as_raw_fd(),
                    slot.buf.as_mut_ptr(),
                    want_bytes,
                    start * BYTES_PER_U32,
                    idx as u64,
                )
            }?;
            self.slots[idx].state = SlotState::InFlight { start, submitted };
            Ok(())
        }

        /// Queue reads for the blocks of the grid from `from` that start
        /// before `end`, into whatever slots are available — keeping the
        /// pipeline full after a fetch or reposition, or starting on a
        /// hinted range. Best-effort: a submission failure here surfaces on
        /// the fetch that needs the block.
        fn queue_ahead(&mut self, from: u64, end: u64) {
            self.reap();
            let (plan, n) = self.planned_from(from);
            for &p in plan[..n].iter().take_while(|&&p| p < end) {
                if self.slot_for(p).is_some() {
                    continue;
                }
                let Some(idx) = self.acquire_slot(&plan[..n]) else {
                    break;
                };
                if self.submit_slot(idx, p).is_err() {
                    break;
                }
            }
        }

        /// Wait out every in-flight read so no kernel write can land in a
        /// freed buffer. Called on drop.
        fn drain(&mut self) {
            loop {
                self.reap();
                let in_flight = self
                    .slots
                    .iter()
                    .any(|s| matches!(s.state, SlotState::InFlight { .. }));
                if !in_flight {
                    return;
                }
                if self.ring.wait().is_err() {
                    // Cannot prove the reads finished: leak the buffers
                    // rather than hand the kernel freed memory.
                    for slot in &mut self.slots {
                        if matches!(slot.state, SlotState::InFlight { .. }) {
                            std::mem::forget(std::mem::take(&mut slot.buf));
                        }
                    }
                    return;
                }
            }
        }
    }

    impl Drop for UringFetch {
        fn drop(&mut self) {
            self.drain();
        }
    }

    impl BlockFetch for UringFetch {
        /// Take the block at `at` (waiting on the kernel if it is still in
        /// flight, submitting it if it was never queued) and top the
        /// pipeline back up.
        fn fetch(
            &mut self,
            at: u64,
            _want: usize,
            latency: Duration,
            buf: &mut Vec<u8>,
        ) -> std::io::Result<(usize, Duration)> {
            let started = Instant::now();
            self.reap();
            let idx = match self.slot_for(at) {
                Some(i) => i,
                None => {
                    let (plan, n) = self.planned_from(at);
                    let mut idx = self.acquire_slot(&plan[..n]);
                    while idx.is_none() {
                        // Every slot is in flight for stale positions: wait
                        // for any completion and evict it.
                        self.ring.wait()?;
                        self.reap();
                        idx = self.acquire_slot(&plan[..n]);
                    }
                    let idx = idx.expect("acquire_slot loops until a slot frees up");
                    self.submit_slot(idx, at)?;
                    idx
                }
            };
            while matches!(self.slots[idx].state, SlotState::InFlight { .. }) {
                self.ring.wait()?;
                self.reap();
            }
            let state = std::mem::replace(&mut self.slots[idx].state, SlotState::Free);
            let SlotState::Ready { submitted, res, .. } = state else {
                unreachable!("slot was just waited into Ready");
            };
            let n_bytes = res?;
            // The emulated device serves a block `latency` after it was
            // queued; sleep only the part compute did not already hide.
            if !latency.is_zero() {
                let since = submitted.elapsed();
                if since < latency {
                    std::thread::sleep(latency - since);
                }
            }
            // Whole u32s only (a short tail can only mean concurrent
            // truncation; file length is fixed at open).
            let n_u32 = n_bytes / BYTES_PER_U32 as usize;
            std::mem::swap(buf, &mut self.slots[idx].buf);
            buf.truncate(n_u32 * BYTES_PER_U32 as usize);
            // Charge device activity: at least the emulated latency, or the
            // real wall this fetch blocked (whichever is larger), matching
            // the other backends' per-block charges.
            let took = started.elapsed().max(latency);
            self.queue_ahead(at + n_u32 as u64, u64::MAX);
            Ok((n_u32, took))
        }

        /// Unconsumed read-ahead for the old position simply stops matching
        /// future fetches (discarded uncharged); queue the new position's
        /// blocks right away.
        fn moved_to(&mut self, at: u64) {
            self.queue_ahead(at, u64::MAX);
        }

        /// Queue the announced range's first blocks now so they complete
        /// while the caller computes. The accounting happens when the
        /// announced `seek_to(pos)` + reads consume the blocks.
        fn hint(&mut self, pos: u64, len: usize) {
            self.queue_ahead(pos.min(self.len_u32), pos + len as u64);
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
)))]
mod imp {
    //! No ring on this platform: a fetcher nobody can construct.
    use super::*;

    pub(super) fn probe_kernel() -> bool {
        false
    }

    /// Uninhabited: no ring exists on this platform.
    #[derive(Debug)]
    pub enum UringFetch {}

    impl UringFetch {
        pub(super) fn open(path: &Path, _block_u32s: usize) -> Result<(Self, u64)> {
            Err(unavailable(path))
        }
    }

    impl BlockFetch for UringFetch {
        fn fetch(
            &mut self,
            _at: u64,
            _want: usize,
            _latency: Duration,
            _buf: &mut Vec<u8>,
        ) -> std::io::Result<(usize, Duration)> {
            match *self {}
        }
    }
}

pub use imp::UringFetch;

/// The asynchronous transport: [`BlockStream`] over [`UringFetch`].
/// See the module docs.
pub type UringSource = BlockStream<UringFetch>;

/// The `Unsupported` error of a kernel, platform or operator that
/// rules `io_uring` out.
fn unavailable(path: &Path) -> IoError {
    IoError::os(
        "io_uring",
        path,
        std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "io_uring is unavailable on this kernel or platform \
             (or disabled via PDTL_URING_DISABLE)",
        ),
    )
}

impl UringSource {
    /// Open `path` with the default block size. Fails with
    /// `Unsupported` when [`uring_supported`] is `false`.
    pub fn open(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Self::with_block(path, stats, DEFAULT_BUF_U32S)
    }

    /// Open `path` with a block of `block_u32s` values (minimum 1).
    pub fn with_block(
        path: impl AsRef<Path>,
        stats: Arc<IoStats>,
        block_u32s: usize,
    ) -> Result<Self> {
        let (path, block_u32s) = (path.as_ref(), block_u32s.max(1));
        if !uring_supported() {
            return Err(unavailable(path));
        }
        let (fetch, len_u32) = UringFetch::open(path, block_u32s)?;
        Ok(Self::over(fetch, path, stats, len_u32, block_u32s, None))
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
mod tests {
    use super::*;
    use crate::stream::{U32Reader, U32Source, U32Writer};
    use std::path::PathBuf;
    use std::time::Instant;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-uring-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn write_vals(name: &str, vals: &[u32]) -> PathBuf {
        let p = tmp(name);
        let mut w = U32Writer::create(&p, IoStats::new()).unwrap();
        w.write_all(vals).unwrap();
        w.finish().unwrap();
        p
    }

    #[test]
    fn supported_or_cleanly_degraded() {
        // Gated kernels (seccomp, io_uring_disabled, pre-5.6) are a
        // supported configuration — the backend promises degradation,
        // not availability. Assert the degradation contract instead of
        // the kernel feature; the remaining tests in this module cover
        // the real ring wherever the probe succeeds.
        assert!(uring_compiled(), "this module only builds on Linux");
        if !uring_supported() {
            let p = write_vals("probe", &[1, 2, 3]);
            let err = UringSource::open(&p, IoStats::new()).unwrap_err();
            assert!(err.to_string().contains("io_uring"), "{err}");
            eprintln!("io_uring unavailable here; degradation path verified instead");
        }
    }

    #[test]
    fn sequential_read_matches_file() {
        if !uring_supported() {
            return;
        }
        let vals: Vec<u32> = (0..50_000).map(|i| i ^ 0xBEEF).collect();
        let p = write_vals("seq", &vals);
        let stats = IoStats::new();
        let mut u = UringSource::with_block(&p, stats.clone(), 512).unwrap();
        assert_eq!(u.len_u32(), vals.len() as u64);
        let mut out = Vec::new();
        assert_eq!(
            U32Source::read_into(&mut u, &mut out, vals.len() + 7).unwrap(),
            vals.len()
        );
        assert_eq!(out, vals);
        // One zero-byte EOF op beyond the data blocks, like U32Reader.
        assert_eq!(stats.bytes_read(), vals.len() as u64 * 4);
    }

    #[test]
    fn accounting_matches_blocking_reader_exactly() {
        if !uring_supported() {
            return;
        }
        let vals: Vec<u32> = (0..20_000).map(|i| i * 3 + 1).collect();
        let p = write_vals("acct", &vals);

        let drive = |src: &mut dyn U32Source| {
            let mut out = Vec::new();
            src.read_into(&mut out, 100).unwrap();
            src.skip(37).unwrap(); // short: read-through
            src.read_into(&mut out, 50).unwrap();
            src.skip(5000).unwrap(); // long: seek
            src.read_into(&mut out, 200).unwrap();
            src.seek_to(3).unwrap();
            src.read_into(&mut out, 10).unwrap();
            src.skip(u64::MAX).unwrap(); // clamps at EOF
            src.read_into(&mut out, 10).unwrap(); // EOF read
            (out, src.position())
        };

        let bstats = IoStats::new();
        let mut b = U32Reader::with_buffer(&p, bstats.clone(), 512).unwrap();
        let (b_out, b_pos) = drive(&mut b);

        let ustats = IoStats::new();
        let mut u = UringSource::with_block(&p, ustats.clone(), 512).unwrap();
        let (u_out, u_pos) = drive(&mut u);

        assert_eq!(u_out, b_out, "identical value streams");
        assert_eq!(u_pos, b_pos);
        assert_eq!(ustats.bytes_read(), bstats.bytes_read());
        assert_eq!(ustats.seeks(), bstats.seeks());
        assert_eq!(ustats.read_ops(), bstats.read_ops());
    }

    #[test]
    fn read_exact_range_mirrors_blocking_chunk_loads() {
        if !uring_supported() {
            return;
        }
        let vals: Vec<u32> = (0..20_000).collect();
        let p = write_vals("range", &vals);

        let bstats = IoStats::new();
        let mut r = U32Reader::with_buffer(&p, bstats.clone(), 512).unwrap();
        let mut bbuf = Vec::new();
        r.read_exact_range(3_000, 700, &mut bbuf).unwrap();

        let ustats = IoStats::new();
        let mut u = UringSource::with_block(&p, ustats.clone(), 512).unwrap();
        let mut ubuf = Vec::new();
        u.read_exact_range(3_000, 700, &mut ubuf).unwrap();
        assert_eq!(ubuf, bbuf);
        assert_eq!(ustats.bytes_read(), bstats.bytes_read());
        assert_eq!(ustats.seeks(), bstats.seeks());
        assert_eq!(ustats.read_ops(), bstats.read_ops());

        // Out-of-range loads fail identically.
        let be = r.read_exact_range(19_900, 200, &mut bbuf).unwrap_err();
        let ue = u.read_exact_range(19_900, 200, &mut ubuf).unwrap_err();
        assert!(be.to_string().contains("past end of file"));
        assert!(ue.to_string().contains("past end of file"));
    }

    #[test]
    fn pre_read_is_advisory_and_unaccounted() {
        if !uring_supported() {
            return;
        }
        let vals: Vec<u32> = (0..50_000).collect();
        let p = write_vals("preread", &vals);
        let stats = IoStats::new();
        let mut u = UringSource::with_block(&p, stats.clone(), 1000).unwrap();
        let mut out = Vec::new();
        // Each hint is queued when the load before it is done.
        for (pos, len) in [(30_000, 4_000), (49_999, 500), (60_000, 10)] {
            u.hint_range(pos, len); // the 2nd clamps at the end, the 3rd is past it
            u.range_run(0, 10, &mut out).unwrap();
        }
        assert_eq!(stats.bytes_read(), 3 * 1000 * 4, "hints are never charged");
        assert_eq!(stats.read_ops(), 3);
        // A hinted load is then served (and charged) normally.
        u.hint_range(30_000, 4_000);
        u.range_run(0, 10, &mut out).unwrap();
        assert_eq!(
            u.range_run(30_000, 2_500, &mut out).unwrap(),
            &vals[30_000..32_500]
        );
        assert_eq!(stats.read_ops(), 4 + 3);
    }

    #[test]
    fn rescans_deliver_identical_data() {
        if !uring_supported() {
            return;
        }
        // The MGT scan pass seeks back to 0 once per chunk iteration,
        // discarding whatever read-ahead was queued.
        let vals: Vec<u32> = (0..5_000).map(|i| i ^ 0xA5A5).collect();
        let p = write_vals("rescan", &vals);
        let mut u = UringSource::with_block(&p, IoStats::new(), 64).unwrap();
        for _ in 0..5 {
            U32Source::seek_to(&mut u, 0).unwrap();
            let mut out = Vec::new();
            U32Source::read_into(&mut u, &mut out, vals.len()).unwrap();
            assert_eq!(out, vals);
        }
    }

    #[test]
    fn empty_file_reads_nothing() {
        if !uring_supported() {
            return;
        }
        let p = write_vals("empty", &[]);
        let stats = IoStats::new();
        let mut u = UringSource::open(&p, stats.clone()).unwrap();
        assert_eq!(u.len_u32(), 0);
        let mut out = Vec::new();
        assert_eq!(U32Source::read_into(&mut u, &mut out, 10).unwrap(), 0);
        U32Source::seek_to(&mut u, 5).unwrap();
        assert_eq!(U32Source::position(&u), 0, "clamped to empty length");
        U32Source::skip(&mut u, u64::MAX).unwrap();
    }

    #[test]
    fn rejects_non_u32_sized_file() {
        if !uring_supported() {
            return;
        }
        let p = tmp("badsize");
        std::fs::write(&p, [0u8; 6]).unwrap();
        let err = UringSource::open(&p, IoStats::new()).unwrap_err();
        assert!(err.to_string().contains("multiple of 4"));
    }

    #[test]
    fn missing_file_error_names_path() {
        if !uring_supported() {
            return;
        }
        let p = tmp("does-not-exist-uring");
        let _ = std::fs::remove_file(&p);
        let err = UringSource::open(&p, IoStats::new()).unwrap_err();
        assert!(err.to_string().contains("does-not-exist-uring"));
    }

    #[test]
    fn read_latency_emulates_an_async_device() {
        if !uring_supported() {
            return;
        }
        let vals: Vec<u32> = (0..4_000).collect();
        let p = write_vals("latency", &vals);
        let stats = IoStats::new();
        let mut u = UringSource::with_block(&p, stats.clone(), 1000).unwrap();
        u.set_read_latency(Duration::from_millis(4));
        // First block: nothing was in flight, pay the full latency.
        let t = Instant::now();
        let mut out = Vec::new();
        U32Source::read_into(&mut u, &mut out, 1000).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(4));
        // Blocks 2..4 were submitted while block 1 was consumed;
        // "compute" longer than the latency hides them completely.
        std::thread::sleep(Duration::from_millis(6));
        let t = Instant::now();
        U32Source::read_into(&mut u, &mut out, 3000).unwrap();
        assert!(
            t.elapsed() < Duration::from_millis(9),
            "queued blocks must not serialise their latencies: {:?}",
            t.elapsed()
        );
        assert_eq!(out, vals);
        // Device activity is still charged per block.
        assert!(stats.io_time() >= Duration::from_millis(16));
    }

    #[test]
    fn drop_with_reads_in_flight_is_clean() {
        if !uring_supported() {
            return;
        }
        let vals: Vec<u32> = (0..100_000).collect();
        let p = write_vals("drop", &vals);
        let mut u = UringSource::with_block(&p, IoStats::new(), 256).unwrap();
        u.seek_to(0).unwrap(); // queues read-ahead; then drop immediately
        drop(u);
    }
}
