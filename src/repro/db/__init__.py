"""The stable (disk) version of the database.

"A stable version of the database resides elsewhere on disk.  It does not
necessarily incorporate the most recent changes to the database, but the log
contains sufficient information to restore it to the most recent consistent
state if a crash were to occur."
"""
