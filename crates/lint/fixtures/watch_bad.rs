//! A busy-leap watch derived with float math instead of stored as the
//! integer byte count the component waits on: the rounded target can
//! lie past the byte at which the component acts, so a leap stopping
//! on it would run over the cycle of a real state change.

pub enum Watch {
    Class(u8, u64),
}

pub struct Region {
    pub class: u8,
    pub attributed: u64,
    pub elems: u64,
    pub cost: f64,
}

impl Region {
    pub fn front_watch(&self) -> Option<Watch> {
        let left = (self.elems as f64 * self.cost).ceil() as u64;
        Some(Watch::Class(self.class, self.attributed + left))
    }

    /// A busy leap's stop set: the floor names a byte before the
    /// region's last one, so the leap stops short of the real target.
    pub fn watches(&self) -> [Option<Watch>; 1] {
        [Some(Watch::Class(self.class, self.attributed + self.elems / 2))]
    }
}
